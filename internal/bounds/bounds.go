// Package bounds implements the spectral lower bounds the paper builds
// on: the Donath–Hoffman bound [16] on the k-way cut, the Hagen–Kahng
// ratio-cut bound [25], and the diagonal-perturbation improvement the
// paper's §6 describes ([8][9][12][17]): choosing a zero-trace diagonal D
// that maximizes the bound computed from Q + D.
//
// These bounds certify how far any heuristic solution can be from
// optimal, and the diagonal optimization is the paper's suggested tool
// for tightening them.
package bounds

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/resilience"
)

// DonathHoffman returns the lower bound on the paper's cut objective
// f(P_k) = Σ_h E_h over all partitions with the given cluster sizes:
//
//	f(P_k) ≥ Σ_{j=1..k} m_(j) · λ_j
//
// where λ_1 ≤ … ≤ λ_k are the smallest Laplacian eigenvalues and
// m_(1) ≥ … ≥ m_(k) the sizes sorted descending (largest size paired
// with smallest eigenvalue). Since λ_1 = 0, the first term vanishes.
func DonathHoffman(g *graph.Graph, sizes []int) (float64, error) {
	lam, err := smallestValues(g.Laplacian(), len(sizes))
	if err != nil {
		return 0, err
	}
	return boundFromValues(lam, sizes)
}

// boundFromValues pairs sizes (sorted descending) with eigenvalues
// (ascending) and sums the products.
func boundFromValues(lam []float64, sizes []int) (float64, error) {
	k := len(sizes)
	if k < 1 {
		return 0, fmt.Errorf("bounds: need at least one cluster size")
	}
	if len(lam) < k {
		return 0, fmt.Errorf("bounds: %d eigenvalues for %d sizes", len(lam), k)
	}
	m := append([]int(nil), sizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(m)))
	var b float64
	for j := 0; j < k; j++ {
		if m[j] < 1 {
			return 0, fmt.Errorf("bounds: cluster size %d < 1", m[j])
		}
		b += float64(m[j]) * lam[j]
	}
	return b, nil
}

// RatioCutBound returns the Hagen–Kahng lower bound on the ratio cut of
// any bipartition: cut/(|C_1||C_2|) ≥ λ_2/n.
func RatioCutBound(g *graph.Graph) (float64, error) {
	lam, err := smallestValues(g.Laplacian(), 2)
	if err != nil {
		return 0, err
	}
	return lam[1] / float64(g.N()), nil
}

// BipartitionCutBound returns the Fiedler bound on the weighted cut of a
// bipartition with sides m1, m2: cut ≥ λ_2·m1·m2/n.
func BipartitionCutBound(g *graph.Graph, m1, m2 int) (float64, error) {
	if m1+m2 != g.N() || m1 < 1 || m2 < 1 {
		return 0, fmt.Errorf("bounds: sizes %d+%d do not partition %d vertices", m1, m2, g.N())
	}
	lam, err := smallestValues(g.Laplacian(), 2)
	if err != nil {
		return 0, err
	}
	return lam[1] * float64(m1) * float64(m2) / float64(g.N()), nil
}

// OptimizeDiagonalOptions configures the diagonal-perturbation ascent.
type OptimizeDiagonalOptions struct {
	// Iterations of subgradient ascent (default 20).
	Iterations int
	// Step is the initial step size (default 0.5), halved on failure to
	// improve.
	Step float64
}

// OptimizeDiagonal improves the Donath–Hoffman bound by subgradient
// ascent over zero-trace diagonal perturbations: for any diagonal D with
// trace(D) = 0, trace(Xᵀ(Q+D)X) = f(P_k) + trace(D) = f(P_k), so the
// bound computed from Q + D is also a valid lower bound on f. The
// subgradient of λ_j with respect to D_ii is U[i][j]².
//
// Returns the best bound found and the diagonal achieving it. Intended
// for analysis of small graphs (each iteration is a dense eigensolve).
func OptimizeDiagonal(g *graph.Graph, sizes []int, opts OptimizeDiagonalOptions) (float64, []float64, error) {
	n := g.N()
	k := len(sizes)
	if k > n {
		return 0, nil, fmt.Errorf("bounds: %d sizes for %d vertices", k, n)
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 20
	}
	step := opts.Step
	if step <= 0 {
		step = 0.5
	}
	m := append([]int(nil), sizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(m)))

	q := g.LaplacianDense()
	diag := make([]float64, n)
	evalBound := func(d []float64) (float64, *eigen.Decomposition, error) {
		qd := q.Clone()
		for i := 0; i < n; i++ {
			qd.Add(i, i, d[i])
		}
		dec, err := eigen.SymEig(qd)
		if err != nil {
			return 0, nil, err
		}
		b, err := boundFromValues(dec.Values, m)
		return b, dec, err
	}

	best, dec, err := evalBound(diag)
	if err != nil {
		return 0, nil, err
	}
	bestDiag := linalg.CopyVec(diag)

	for it := 0; it < iters; it++ {
		// Subgradient: ∂(Σ_j m_j λ_j)/∂d_i = Σ_j m_j·U[i][j]², projected
		// onto the zero-trace subspace.
		grad := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				u := dec.Vectors.At(i, j)
				grad[i] += float64(m[j]) * u * u
			}
		}
		mean := linalg.Sum(grad) / float64(n)
		for i := range grad {
			grad[i] -= mean
		}
		if linalg.Norm2(grad) < 1e-12 {
			break
		}
		trial := linalg.CopyVec(bestDiag)
		linalg.Axpy(step, grad, trial)
		b, decTrial, err := evalBound(trial)
		if err != nil {
			return 0, nil, err
		}
		if b > best {
			best = b
			bestDiag = trial
			dec = decTrial
		} else {
			step /= 2
			if step < 1e-6 {
				break
			}
		}
	}
	return best, bestDiag, nil
}

// smallestValues returns the k smallest eigenvalues of op.
func smallestValues(op linalg.Operator, k int) ([]float64, error) {
	sol, err := resilience.SolveEigen(context.TODO(), op, k, resilience.EigenPolicy{MinD: k})
	if err != nil {
		return nil, err
	}
	return sol.Dec.Values, nil
}
