package melo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
)

// referenceOrder is the serial MELO scan with the uncached scorer: every
// candidate's ‖y_i‖² and Y_S·y_i are recomputed from the weights on each
// evaluation. OrderCtx must reproduce its Order, Objective and H bit for
// bit.
func referenceOrder(g *graph.Graph, dec *eigen.Decomposition, opts Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("melo: empty graph")
	}
	if opts.D < 1 {
		return nil, fmt.Errorf("melo: D = %d, want >= 1", opts.D)
	}
	// Skip the trivial eigenvector (λ_1 = 0, constant): it contributes the
	// same amount to every candidate and carries no ordering information.
	d := opts.D
	if d > dec.D()-1 {
		d = dec.D() - 1
	}
	if d > n-1 {
		d = n - 1
	}
	if d < 1 {
		return nil, fmt.Errorf("melo: decomposition has %d pairs, need >= 2", dec.D())
	}

	lam := dec.Values[1 : d+1]
	// U rows: raw (unscaled) eigenvector coordinates per vertex, sliced
	// from one n×d backing array (n separate row allocations would
	// dominate the setup cost for large netlists and scatter the rows
	// across the heap; the scan kernels walk them row by row).
	ubuf := make([]float64, n*d)
	u := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := ubuf[i*d : (i+1)*d : (i+1)*d]
		for j := 0; j < d; j++ {
			row[j] = dec.Vectors.At(i, j+1)
		}
		u[i] = row
	}

	traceQ := g.TotalDegree()
	h0 := chooseH(traceQ, dec.Values[:d+1], n)
	H := h0

	recomputeEvery := opts.RecomputeEvery
	if recomputeEvery <= 0 {
		recomputeEvery = 100
	}

	// State: raw projections of the cluster indicator onto each used
	// eigenvector (p[j] = Σ_{i∈S} U[i][j]), so that
	// Y_S·y_i = Σ_j (H−λ_j)·p[j]·U[i][j] and
	// ‖Y_S‖² = Σ_j (H−λ_j)·p[j]² can be evaluated under the *current* H.
	p := make([]float64, d)
	placed := make([]bool, n)
	// connToS[i] = total weight of edges from i into S; cutS = E(S) =
	// X_SᵀQX_S, maintained incrementally for the adaptive-H estimate.
	connToS := make([]float64, n)
	cutS := 0.0
	// sumProj2 = Σ_{j≤d} p[j]²; sumLamProj2 = Σ_{j≤d} λ_j p[j]².
	res := &Result{Order: make([]int, 0, n), Objective: make([]float64, 0, n), H: make([]float64, 0, n), D: d, Scheme: opts.Scheme}

	weights := make([]float64, d) // (H − λ_j), refreshed when H changes
	refreshWeights := func() {
		for j := 0; j < d; j++ {
			w := H - lam[j]
			if w < 0 {
				w = 0
			}
			weights[j] = w
		}
	}
	refreshWeights()

	normSqUnder := func(row []float64) float64 {
		var s float64
		for j, v := range row {
			s += weights[j] * v * v
		}
		return s
	}
	dotUnder := func(row []float64) float64 {
		var s float64
		for j, v := range row {
			s += weights[j] * p[j] * v
		}
		return s
	}

	score := func(i int, first bool, yNorm float64) float64 {
		ns := normSqUnder(u[i])
		if first {
			// Seed with the largest vector (the strongest global
			// signal); all schemes agree on the seed.
			return ns
		}
		dot := dotUnder(u[i])
		switch opts.Scheme {
		case SchemeGain:
			return 2*dot + ns
		case SchemeCosine:
			den := yNorm * math.Sqrt(ns)
			if den < 1e-300 {
				return ns
			}
			return dot / den
		case SchemeNormalizedGain:
			den := math.Sqrt(ns)
			if den < 1e-300 {
				return 0
			}
			return (2*dot + ns) / den
		case SchemeProjection:
			return dot
		default:
			return 2*dot + ns
		}
	}
	yNorm := func() float64 {
		yNormSq := 0.0
		for j := 0; j < d; j++ {
			yNormSq += weights[j] * p[j] * p[j]
		}
		return math.Sqrt(yNormSq)
	}

	pickAll := func(first bool) int {
		yn := yNorm()
		best := -1
		bestScore := math.Inf(-1)
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			if s := score(i, first, yn); s > bestScore {
				bestScore = s
				best = i
			}
		}
		return best
	}

	// Candidate list T (the paper's periodic re-ranking speedup): keep
	// the top CandidateWindow unplaced vectors by score, re-rank the
	// whole remainder every recomputeEvery insertions, and between
	// re-rankings replenish T after each insertion with the next vector
	// of the stale ranking ("the next ranked vector not in S or T is
	// added to T").
	candidates := make([]int, 0, opts.CandidateWindow) // active window (unplaced)
	ranking := make([]int, 0, n)                       // full stale ranking; ptr = next replenishment
	ptr := 0
	scores := make([]float64, n) // scratch for refreshCandidates
	refreshCandidates := func() {
		w := opts.CandidateWindow
		yn := yNorm()
		for i := 0; i < n; i++ {
			if !placed[i] {
				scores[i] = score(i, false, yn)
			}
		}
		ranking = ranking[:0]
		for i := 0; i < n; i++ {
			if !placed[i] {
				ranking = append(ranking, i)
			}
		}
		sort.Stable(&rankedDesc{idx: ranking, score: scores})
		if w > len(ranking) {
			w = len(ranking)
		}
		candidates = append(candidates[:0], ranking[:w]...)
		ptr = w
	}
	replenish := func(justPlaced int) {
		// Drop the placed vector from the window, then top it up from
		// the stale ranking.
		for i, c := range candidates {
			if c == justPlaced {
				candidates[i] = candidates[len(candidates)-1]
				candidates = candidates[:len(candidates)-1]
				break
			}
		}
		for ptr < len(ranking) && len(candidates) < opts.CandidateWindow {
			next := ranking[ptr]
			ptr++
			if !placed[next] {
				candidates = append(candidates, next)
			}
		}
	}
	pickWindow := func() int {
		yn := yNorm()
		best := -1
		bestScore := math.Inf(-1)
		for _, i := range candidates {
			if placed[i] {
				continue
			}
			if s := score(i, false, yn); s > bestScore {
				bestScore = s
				best = i
			}
		}
		return best
	}

	windowed := opts.CandidateWindow > 0
	for t := 0; t < n; t++ {
		var v int
		switch {
		case t == 0 && opts.Start >= 0 && opts.Start < n:
			v = opts.Start
		case t == 0 || !windowed:
			v = pickAll(t == 0)
		default:
			if (t-1)%recomputeEvery == 0 || allPlaced(candidates, placed) {
				refreshCandidates()
			}
			v = pickWindow()
			if v == -1 {
				refreshCandidates()
				v = pickWindow()
			}
			if v == -1 {
				v = pickAll(false)
			}
		}
		placed[v] = true
		if windowed {
			replenish(v)
		}
		for j := 0; j < d; j++ {
			p[j] += u[v][j]
		}
		cutS += g.Degree(v) - 2*connToS[v]
		for _, half := range g.Adj(v) {
			connToS[half.To] += half.W
		}
		res.Order = append(res.Order, v)
		res.H = append(res.H, H)
		obj := 0.0
		for j := 0; j < d; j++ {
			obj += weights[j] * p[j] * p[j]
		}
		res.Objective = append(res.Objective, obj)

		if opts.AdaptiveH && (t+1)%recomputeEvery == 0 && t+1 < n {
			if newH, ok := adaptiveH(lam, p, cutS, t+1, d, n); ok {
				H = newH
				refreshWeights()
			}
		}
	}
	return res, nil
}

// TestOrderMatchesReference pins the cached-norm scan to the uncached
// scorer: byte-identical Order, Objective and H for every scheme,
// AdaptiveH on and off, CandidateWindow 0 and 32, and an automatic and an
// explicit start vertex, serially, at the default worker count, and
// sharded below scanGrain across three workers.
func TestOrderMatchesReference(t *testing.T) {
	for _, inst := range []struct {
		n, m         int
		seed         int64
		d, recompute int
	}{
		{n: 150, m: 400, seed: 3, d: 6, recompute: 7},
		{n: 700, m: 2100, seed: 11, d: 10, recompute: 100},
	} {
		g := graph.RandomConnected(inst.n, inst.m, inst.seed)
		dec := decompose(t, g, inst.d)
		for s := Scheme(0); s < NumSchemes; s++ {
			for _, adaptive := range []bool{false, true} {
				for _, window := range []int{0, 32} {
					for _, start := range []int{-1, inst.n / 3} {
						opts := Options{D: inst.d, Scheme: s, AdaptiveH: adaptive, RecomputeEvery: inst.recompute,
							Start: start, CandidateWindow: window}
						want, err := referenceOrder(g, dec, opts)
						if err != nil {
							t.Fatal(err)
						}
						for _, run := range []struct{ workers, grain int }{{1, scanGrain}, {0, scanGrain}, {3, 16}} {
							opts.Workers = run.workers
							got, err := orderGrain(context.Background(), g, dec, opts, run.grain)
							if err != nil {
								t.Fatal(err)
							}
							name := fmt.Sprintf("n=%d %v adaptive=%v window=%d start=%d workers=%d grain=%d",
								inst.n, s, adaptive, window, start, run.workers, run.grain)
							sameOrdering(t, name, got, want)
						}
					}
				}
			}
		}
	}
}

func sameOrdering(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: %d placed, reference %d", name, len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] ||
			math.Float64bits(got.Objective[i]) != math.Float64bits(want.Objective[i]) ||
			math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
			t.Fatalf("%s: step %d places %d (objective %v, H %v), reference %d (%v, %v)", name, i,
				got.Order[i], got.Objective[i], got.H[i], want.Order[i], want.Objective[i], want.H[i])
		}
	}
}
