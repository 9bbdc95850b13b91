// Package paraboli provides the repository's substitute for PARABOLI
// (Riess, Doll and Johannes [38]), the analytical-placement bipartitioner
// the paper's Table 5 compares against. PARABOLI itself is closed source;
// what Table 5 needs from it is "a strong balanced bipartitioner derived
// from a global quadratic placement". This package implements exactly that
// pipeline (see DESIGN.md §5):
//
//  1. Build the clique-model graph and its Laplacian L.
//  2. Pick two far-apart seed vertices (the extremes of the Fiedler
//     ordering, mirroring PARABOLI's seeded placement).
//  3. Solve the anchored quadratic placement (L + αP)x = α·b by
//     conjugate gradients, where P pins the seeds toward 0 and 1.
//  4. Iterate: reanchor each current half's center of gravity toward its
//     end of the segment and re-solve (the PROUD/PARABOLI-style
//     repartitioning iteration).
//  5. Return the best balanced split of the final placement ordering.
package paraboli

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/linalg"
	"repro/internal/resilience"
)

// Options configures the placer.
type Options struct {
	// Model is the clique model for the netlist-to-graph expansion.
	Model graph.CliqueModel
	// MinFrac is the balance bound for the final split (Table 5 uses
	// 0.45).
	MinFrac float64
	// Iterations is the number of reanchoring rounds. Default 3.
	Iterations int
}

// alpha is the anchor strength of every placement solve.
const alpha = 1.0

// Bipartition places the netlist on a line and returns the best balanced
// split of the placement ordering.
func Bipartition(h *hypergraph.Hypergraph, opts Options) (dprp.SplitResult, error) {
	return BipartitionCtx(context.Background(), h, opts)
}

// BipartitionCtx is Bipartition with cooperative cancellation, checked
// inside the seed eigensolve and at every CG iteration of each
// placement solve.
func BipartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (dprp.SplitResult, error) {
	n := h.NumModules()
	if n < 2 {
		return dprp.SplitResult{}, fmt.Errorf("paraboli: need >= 2 modules, have %d", n)
	}
	if opts.MinFrac <= 0 || opts.MinFrac > 0.5 {
		return dprp.SplitResult{}, fmt.Errorf("paraboli: MinFrac = %v, want (0, 0.5]", opts.MinFrac)
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 3
	}

	g, err := graph.FromHypergraph(h, opts.Model)
	if err != nil {
		return dprp.SplitResult{}, err
	}
	lap := g.Laplacian()

	// Seeds: Fiedler extremes. On a disconnected graph the Fiedler vector
	// separates components, which still yields usable far-apart seeds.
	// Tighter than the ladder's ordering-grade default: each seed is a
	// single extreme coordinate of the Fiedler vector.
	sol, err := resilience.SolveEigen(ctx, lap, 2, resilience.EigenPolicy{Tol: 1e-9})
	if err != nil {
		return dprp.SplitResult{}, fmt.Errorf("paraboli: eigensolve: %v", err)
	}
	fiedler := sol.Dec.Vector(1)
	seedLo, seedHi := 0, 0
	for i := 1; i < n; i++ {
		if fiedler[i] < fiedler[seedLo] {
			seedLo = i
		}
		if fiedler[i] > fiedler[seedHi] {
			seedHi = i
		}
	}
	if seedLo == seedHi {
		seedHi = (seedLo + 1) % n
	}

	// anchored solves (L + αP) x = α b for the given anchor set.
	diag := lap.Diag()
	x := make([]float64, n)
	anchored := func(anchors map[int]float64, x0 []float64) ([]float64, error) {
		op := &anchoredOp{lap: lap, alpha: alpha, anchors: anchors}
		b := make([]float64, n)
		for i, target := range anchors {
			b[i] = alpha * target
		}
		adiag := linalg.CopyVec(diag)
		for i := range anchors {
			adiag[i] += alpha
		}
		sol, _, err := eigen.CGCtx(ctx, op, b, x0, adiag, &eigen.CGOptions{Tol: 1e-8})
		return sol, err
	}

	anchors := map[int]float64{seedLo: 0, seedHi: 1}
	x, err = anchored(anchors, nil)
	if err != nil {
		return dprp.SplitResult{}, fmt.Errorf("paraboli: placement solve: %v", err)
	}

	for round := 1; round < iters; round++ {
		// Reanchor: every vertex in the left half is pulled gently toward
		// 0, the right half toward 1, with the original seeds pinned hard.
		order := argsort(x)
		half := n / 2
		anchors = make(map[int]float64, n)
		for rank, v := range order {
			if rank < half {
				anchors[v] = 0
			} else {
				anchors[v] = 1
			}
		}
		anchors[seedLo] = 0
		anchors[seedHi] = 1
		x, err = anchored(anchors, x)
		if err != nil {
			return dprp.SplitResult{}, fmt.Errorf("paraboli: round %d solve: %v", round, err)
		}
	}

	return dprp.BestBalancedSplit(h, argsort(x), opts.MinFrac)
}

// anchoredOp applies (L + αP) where P is the indicator of anchored rows.
type anchoredOp struct {
	lap     *linalg.CSR
	alpha   float64
	anchors map[int]float64
}

func (a *anchoredOp) Dim() int { return a.lap.Dim() }

func (a *anchoredOp) MatVec(x, y []float64) {
	a.lap.MatVec(x, y)
	for i := range a.anchors {
		y[i] += a.alpha * x[i]
	}
}

func argsort(x []float64) []int {
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if x[order[a]] != x[order[b]] {
			return x[order[a]] < x[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}
