// Package melo implements MELO (Multiple-Eigenvector Linear Orderings),
// the paper's partitioning heuristic.
//
// MELO works on the vector-partitioning view: each vertex v_i is a
// d-dimensional vector y_i with coordinates sqrt(H − λ_j)·U[i][j]. A
// cluster S has subset vector Y_S = Σ_{i∈S} y_i, and growing S to maximize
// ‖Y_S‖² is (for d = n) exactly minimizing the cut between S and V∖S.
// MELO greedily inserts the vertex whose vector best extends Y_S under a
// weighting scheme; the insertion order is a vertex ordering that is then
// split into partitionings (all splits for 2-way, DP-RP for multi-way).
//
// The constant H is chosen so the truncated objective is unbiased
// (Σ_{j>d}(H−λ_j) = 0) and is re-estimated adaptively as the cluster grows
// using the cluster's true cut degree — the "recompute H using C_1" step
// of the paper's Figure 2.
package melo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// scanGrain is the minimum candidates per shard of a parallel gain
// scan; each candidate costs O(d) flops, so finer shards would be all
// scheduling overhead.
const scanGrain = 256

// Scheme selects the weighting function that ranks candidate vectors at
// each MELO step. The source scan garbles the paper's exact formulas; the
// four schemes below span the design axes the paper describes (magnitude
// vs direction; see DESIGN.md §5). All are evaluated against the current
// subset vector Y and candidate vector y.
type Scheme int

const (
	// SchemeGain maximizes the objective increase ‖Y+y‖² − ‖Y‖² =
	// 2·Y·y + ‖y‖² (pure magnitude gain). Scheme #1.
	SchemeGain Scheme = iota
	// SchemeCosine maximizes the directional cosine Y·y/(‖Y‖·‖y‖)
	// (pure direction, the similarity measure of KP [10]). Scheme #2.
	SchemeCosine
	// SchemeNormalizedGain maximizes (2·Y·y + ‖y‖²)/‖y‖, the gain per
	// unit of candidate magnitude. Scheme #3.
	SchemeNormalizedGain
	// SchemeProjection maximizes the raw projection Y·y. Scheme #4.
	SchemeProjection
)

// NumSchemes is the number of weighting schemes.
const NumSchemes = 4

// String returns the scheme's paper-style label.
func (s Scheme) String() string {
	switch s {
	case SchemeGain:
		return "#1 gain"
	case SchemeCosine:
		return "#2 cosine"
	case SchemeNormalizedGain:
		return "#3 normalized gain"
	case SchemeProjection:
		return "#4 projection"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Options configures an ordering construction.
type Options struct {
	// D is the number of non-trivial eigenvectors to use (the paper's d;
	// its main experiments use d = 10). Required.
	D int
	// Scheme is the candidate weighting scheme.
	Scheme Scheme
	// AdaptiveH re-estimates H from the growing cluster's true cut degree
	// (the paper's Figure 2 Step 6). When false, the initial
	// truncation-balanced H is kept throughout.
	AdaptiveH bool
	// RecomputeEvery controls how often (in insertions) H is re-estimated
	// when AdaptiveH is set. The paper re-ranks "periodically (e.g.,
	// every 100 iterations)". Default 100.
	RecomputeEvery int
	// Start forces the ordering to start from this vertex; -1 (default
	// via NewOptions) selects the vertex with the largest vector
	// magnitude.
	Start int
	// CandidateWindow enables the paper's candidate-list speedup: only
	// the top-ranked unplaced vectors are scanned each step, with the
	// full ranking recomputed every RecomputeEvery insertions ("the
	// remaining vectors are re-ranked periodically (e.g., every 100
	// iterations) and T is updated"). 0 scans every unplaced vector
	// every step (exact greedy).
	CandidateWindow int
	// Workers bounds the goroutines the per-candidate gain evaluation
	// may use. 0 selects the process default (parallel.Limit()); 1
	// forces serial. The scan reduces shard results in index order
	// with the same first-wins tie-break as the serial loop, so the
	// constructed ordering is byte-identical at every setting.
	Workers int
}

// NewOptions returns Options with the paper's defaults (d = 10, scheme #1,
// adaptive H every 100 insertions, automatic start vertex).
func NewOptions() Options {
	return Options{D: 10, Scheme: SchemeGain, AdaptiveH: true, RecomputeEvery: 100, Start: -1}
}

// Result is a constructed ordering plus diagnostics.
type Result struct {
	// Order is the vertex ordering (a permutation of 0..n-1).
	Order []int
	// Objective[t] is ‖Y_S‖² after inserting Order[t].
	Objective []float64
	// H holds the value of H in effect when each vertex was inserted.
	H []float64
	// D and Scheme echo the options used.
	D      int
	Scheme Scheme
}

// Order constructs a MELO ordering of g's vertices. dec must hold at least
// D+1 eigenpairs of g's Laplacian (the trivial constant eigenvector plus D
// informative ones); compute it with resilience.SolveEigen on
// g.Laplacian() for D+1 pairs. The complexity is O(D·n²).
func Order(g *graph.Graph, dec *eigen.Decomposition, opts Options) (*Result, error) {
	return OrderCtx(context.Background(), g, dec, opts)
}

// OrderCtx is Order with cooperative cancellation: ctx is checked at
// every insertion boundary, so a cancelled context aborts within one
// greedy step, returning ctx.Err().
func OrderCtx(ctx context.Context, g *graph.Graph, dec *eigen.Decomposition, opts Options) (*Result, error) {
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
	// Candidate-evaluation counting stays in serial code (shard closures
	// must not share a counter — see the parallelism model): each scan
	// knows its candidate count up front from the placed tally.
	ctx, span := trace.Start(ctx, "ordering.melo",
		trace.Int("n", n), trace.Int("d", opts.D), trace.Str("scheme", opts.Scheme.String()))
	var evals int64
	placedN := 0
	defer func() {
		trace.Add(ctx, "melo.candidates", evals)
		span.Annotate(trace.Int64("evals", evals))
		span.End()
	}()

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
	// normSq[i] = ‖y_i‖² under the current weights. It depends only on
	// H, so it is refreshed with the weights instead of per candidate.
	normSq := make([]float64, n)
	refreshWeights := func() {
		for j := 0; j < d; j++ {
			w := H - lam[j]
			if w < 0 {
				w = 0
			}
			weights[j] = w
		}
		for i, row := range u {
			var s float64
			for j, v := range row {
				s += weights[j] * v * v
			}
			normSq[i] = s
		}
	}
	refreshWeights()

	// wp[j] = weights[j]·p[j], folded once per scan by prepScan. Go
	// evaluates weights[j]*p[j]*v as (weights[j]*p[j])*v, so dotUnder's
	// scores are bitwise those of the unfolded product.
	wp := make([]float64, d)
	dotUnder := func(row []float64) float64 {
		var s float64
		for j, v := range row {
			s += wp[j] * v
		}
		return s
	}

	score := func(i int, first bool, yNorm float64) float64 {
		ns := normSq[i]
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
	// prepScan folds wp for the coming scan and returns ‖Y_S‖.
	prepScan := func() float64 {
		yNormSq := 0.0
		for j := 0; j < d; j++ {
			wp[j] = weights[j] * p[j]
			yNormSq += wp[j] * p[j]
		}
		return math.Sqrt(yNormSq)
	}

	workers := parallel.Workers(opts.Workers)

	// pickAll scans every unplaced vector (exact greedy). The scan is
	// sharded: each shard keeps its first-best candidate, and shards
	// are reduced in index order with a strict comparison — exactly the
	// serial loop's lowest-index-wins tie-break, so the winner is
	// identical at every worker count.
	type shardBest struct {
		idx int
		s   float64
	}
	shards := make([]shardBest, parallel.NumChunks(workers, n, scanGrain))
	pickAll := func(first bool) int {
		evals += int64(n - placedN)
		yn := prepScan()
		parallel.For(workers, n, scanGrain, func(ch, lo, hi int) {
			b := shardBest{idx: -1, s: math.Inf(-1)}
			for i := lo; i < hi; i++ {
				if placed[i] {
					continue
				}
				if s := score(i, first, yn); s > b.s {
					b.s = s
					b.idx = i
				}
			}
			shards[ch] = b
		})
		best := -1
		bestScore := math.Inf(-1)
		for _, b := range shards {
			if b.idx >= 0 && b.s > bestScore {
				bestScore = b.s
				best = b.idx
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
		evals += int64(n - placedN)
		w := opts.CandidateWindow
		yn := prepScan()
		// Score every unplaced vector in parallel (disjoint writes, one
		// serial evaluation per candidate: worker-invariant), then rank
		// serially so the sort sees identical input at every setting.
		parallel.For(workers, n, scanGrain, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if !placed[i] {
					scores[i] = score(i, false, yn)
				}
			}
		})
		// Rank the unplaced indices in place (no per-refresh candidate
		// structs): ranking is filled index-ascending, and the stable
		// sort on descending score preserves that order on ties —
		// identical to the old build-and-sort over (idx, score) pairs.
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
		evals += int64(len(candidates))
		yn := prepScan()
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
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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
		placedN++
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

// allPlaced reports whether every candidate has already been placed.
func allPlaced(candidates []int, placed []bool) bool {
	for _, i := range candidates {
		if !placed[i] {
			return false
		}
	}
	return true
}

// chooseH mirrors vecpart.ChooseH for the non-trivial eigenvalues used
// here: the mean of the unused eigenvalues, computed from trace(Q).
// lamAll includes the trivial λ_1 ≈ 0 plus the d used eigenvalues.
func chooseH(traceQ float64, lamAll []float64, n int) float64 {
	used := 0.0
	for _, l := range lamAll {
		used += l
	}
	dUsed := len(lamAll)
	if dUsed >= n {
		return lamAll[dUsed-1]
	}
	h := (traceQ - used) / float64(n-dUsed)
	if last := lamAll[dUsed-1]; h < last {
		h = last
	}
	return h
}

// adaptiveH re-estimates H from the current cluster S (the paper's
// "recompute H using C_1"): choose H so the contribution of the *unused*
// eigenvectors to this specific cluster vanishes,
//
//	Σ_{j>d} (H − λ_j)·α_j² = 0  ⟹  H = Σ_{j>d} λ_j α_j² / Σ_{j>d} α_j²
//
// where α_j is the projection of S's indicator onto eigenvector j. Both
// sums are computable without the unused eigenvectors:
// Σ_j α_j² = |S| and Σ_j λ_j α_j² = E(S) (the cluster's cut degree).
func adaptiveH(lam, p []float64, cutS float64, sizeS, d, n int) (float64, bool) {
	var proj2, lamProj2 float64
	for j := 0; j < d; j++ {
		proj2 += p[j] * p[j]
		lamProj2 += lam[j] * p[j] * p[j]
	}
	// Include the trivial eigenvector's projection: α_0 = |S|/√n, λ_0 = 0.
	proj2 += float64(sizeS) * float64(sizeS) / float64(n)
	denom := float64(sizeS) - proj2
	num := cutS - lamProj2
	if denom <= 1e-9 || num <= 0 {
		return 0, false // cluster fully captured by used eigenvectors
	}
	h := num / denom
	if h < lam[d-1] {
		// Keep the MaxSum scaling real: H may not drop below λ_{d+1}.
		h = lam[d-1]
	}
	return h, true
}

// rankedDesc sorts an index slice by descending score; used with
// sort.Stable so equal scores keep their index-ascending insertion
// order (the serial tie-break every worker count must reproduce).
type rankedDesc struct {
	idx   []int
	score []float64
}

func (r *rankedDesc) Len() int           { return len(r.idx) }
func (r *rankedDesc) Less(a, b int) bool { return r.score[r.idx[a]] > r.score[r.idx[b]] }
func (r *rankedDesc) Swap(a, b int)      { r.idx[a], r.idx[b] = r.idx[b], r.idx[a] }
