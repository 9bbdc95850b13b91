// Package barnes reimplements Barnes' spectral partitioning algorithm
// [7], the earliest multiple-eigenvector method the paper surveys: the
// scaled indicator vectors x_h/√m_h of a k-way partition with prescribed
// sizes m_h are approximated by the k largest eigenvectors of the
// adjacency matrix, and the best rounding of eigenvectors to indicators
// is found exactly as a transportation problem.
//
// Maximizing Σ_h Σ_{i∈C_h} u_h[i]/√m_h over assignments with |C_h| = m_h
// is a balanced transportation instance: every vertex supplies one unit,
// cluster h demands m_h units, and shipping vertex i to cluster h costs
// −u_h[i]/√m_h. Network-flow integrality makes the rounding exact.
package barnes

import (
	"context"
	"fmt"
	"math"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/resilience"
)

// Options configures the algorithm.
type Options struct {
	// Sizes prescribes the cluster sizes (must sum to n). Nil selects
	// near-equal sizes for K clusters.
	Sizes []int
	// K is the number of clusters when Sizes is nil.
	K int
	// SignFlips tries both orientations of each eigenvector (2^k cost
	// evaluations of the transportation problem are too many, so a
	// greedy per-vector orientation pass is used) — eigenvector signs are
	// arbitrary and the approximation is sign-sensitive.
	SignFlips bool
}

// PartitionCtx runs Barnes' algorithm on the graph. ctx bounds the
// eigensolve: cancellation returns ctx.Err() unwrapped.
func PartitionCtx(ctx context.Context, g *graph.Graph, opts Options) (*partition.Partition, error) {
	n := g.N()
	sizes := opts.Sizes
	if sizes == nil {
		k := opts.K
		if k < 2 {
			return nil, fmt.Errorf("barnes: k = %d, want >= 2", k)
		}
		sizes = nearEqualSizes(n, k)
	}
	k := len(sizes)
	if k < 2 {
		return nil, fmt.Errorf("barnes: need >= 2 clusters")
	}
	total := 0
	for _, m := range sizes {
		if m < 1 {
			return nil, fmt.Errorf("barnes: cluster size %d < 1", m)
		}
		total += m
	}
	if total != n {
		return nil, fmt.Errorf("barnes: sizes sum to %d, want n = %d", total, n)
	}

	u, err := largestAdjacencyEigenvectors(ctx, g, k)
	if err != nil {
		return nil, err
	}

	// Greedy sign orientation: flip each eigenvector if that increases
	// the attainable total affinity Σ_i max_h u_h[i] (a cheap proxy for
	// the transportation optimum).
	if opts.SignFlips {
		orientSigns(u)
	}

	supplies := make([]float64, n)
	for i := range supplies {
		supplies[i] = 1
	}
	demands := make([]float64, k)
	cost := make([][]float64, n)
	for i := 0; i < n; i++ {
		cost[i] = make([]float64, k)
		for h := 0; h < k; h++ {
			cost[i][h] = -u[h][i] / math.Sqrt(float64(sizes[h]))
		}
	}
	for h := 0; h < k; h++ {
		demands[h] = float64(sizes[h])
	}
	ship, _, err := flow.Transportation(supplies, demands, cost)
	if err != nil {
		return nil, err
	}
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestV := 0, -1.0
		for h := 0; h < k; h++ {
			if ship[i][h] > bestV {
				bestV = ship[i][h]
				best = h
			}
		}
		assign[i] = best
	}
	return partition.New(assign, k)
}

// nearEqualSizes splits n into k sizes differing by at most one.
func nearEqualSizes(n, k int) []int {
	sizes := make([]int, k)
	base, rem := n/k, n%k
	for h := range sizes {
		sizes[h] = base
		if h < rem {
			sizes[h]++
		}
	}
	return sizes
}

// largestAdjacencyEigenvectors returns the k eigenvectors of the
// adjacency matrix with the largest eigenvalues, as rows.
func largestAdjacencyEigenvectors(ctx context.Context, g *graph.Graph, k int) ([][]float64, error) {
	n := g.N()
	if k > n {
		return nil, fmt.Errorf("barnes: k = %d exceeds n = %d", k, n)
	}
	// The k largest eigenpairs of A are the k smallest of c·I − A for any
	// c ≥ λ_max(A); c = max degree suffices (Gershgorin).
	var c float64
	for i := 0; i < n; i++ {
		if d := g.Degree(i); d > c {
			c = d
		}
	}
	op := &shiftedNegAdjacency{a: g.Adjacency(), c: c}
	sol, err := resilience.SolveEigen(ctx, op, k, resilience.EigenPolicy{MinD: k})
	if err != nil {
		return nil, err
	}
	u := make([][]float64, k)
	for j := 0; j < k; j++ {
		u[j] = sol.Dec.Vector(j)
	}
	return u, nil
}

// shiftedNegAdjacency applies x -> c·x − A·x.
type shiftedNegAdjacency struct {
	a *linalg.CSR
	c float64
}

func (s *shiftedNegAdjacency) Dim() int { return s.a.Dim() }

func (s *shiftedNegAdjacency) MatVec(x, y []float64) {
	s.a.MatVec(x, y)
	for i := range y {
		y[i] = s.c*x[i] - y[i]
	}
}

// orientSigns flips eigenvectors in place so their positive mass
// dominates, making the transportation costs favor coherent clusters.
func orientSigns(u [][]float64) {
	for _, vec := range u {
		var pos, neg float64
		for _, v := range vec {
			if v > 0 {
				pos += v
			} else {
				neg -= v
			}
		}
		if neg > pos {
			for i := range vec {
				vec[i] = -vec[i]
			}
		}
	}
}
