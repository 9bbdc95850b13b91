// Package maxcut implements the paper's §3 extension of the vector
// partitioning view to the maximum-cut problem [13][14][35]: with the
// MinSum scaling y_i[j] = sqrt(λ_j)·U[i][j] and all n eigenvectors,
// Σ_h ‖Y_h‖² = f(P_k) exactly, so MAXIMIZING the vector objective is
// maximizing the cut. The package provides the objective, the exact
// reduction (tested against brute force), a probe-based heuristic in the
// style of Goemans–Williamson random-hyperplane rounding [22], and a
// greedy local-improvement baseline.
package maxcut

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/probe"
	"repro/internal/resilience"
	"repro/internal/vecpart"
)

// Value returns the total weight of edges cut by the bipartition (each
// edge counted once) — the quantity the max-cut problem maximizes.
func Value(g *graph.Graph, p *partition.Partition) float64 {
	return partition.CutWeight(g, p)
}

// Instance builds the max-sum vector-partitioning instance for max-cut on
// g: MinSum-scaled vectors from the d smallest Laplacian eigenpairs
// (d = n makes the reduction exact; the LARGEST eigenvalues carry the
// most max-cut signal, so prefer d close to n for quality).
func Instance(g *graph.Graph, d int) (*vecpart.Vectors, error) {
	n := g.N()
	if d < 1 || d > n {
		return nil, fmt.Errorf("maxcut: d = %d out of range [1,%d]", d, n)
	}
	sol, err := resilience.SolveEigen(context.TODO(), g.Laplacian(), n, resilience.EigenPolicy{MinD: n})
	if err != nil {
		return nil, err
	}
	dec := sol.Dec
	// Keep the d eigenpairs with the LARGEST eigenvalues: under the
	// sqrt(λ) scaling they dominate the objective.
	if d < n {
		dec = columns(dec, n-d, n)
	}
	return vecpart.FromDecomposition(dec, dec.D(), vecpart.MinSum, 0)
}

// columns copies eigenpairs [lo, hi) of a decomposition.
func columns(dec *eigen.Decomposition, lo, hi int) *eigen.Decomposition {
	n := dec.Vectors.Rows
	d := hi - lo
	vecs := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			vecs.Set(i, j, dec.Vectors.At(i, lo+j))
		}
	}
	vals := make([]float64, d)
	copy(vals, dec.Values[lo:hi])
	return &eigen.Decomposition{Values: vals, Vectors: vecs}
}

// ProbeOptions configures the probe heuristic.
type ProbeOptions struct {
	// D is the number of (largest-eigenvalue) eigenvectors (default n).
	D int
	// Probes is the number of random hyperplane probes (default 64).
	Probes int
	// Seed makes the search deterministic (default 1).
	Seed int64
}

// Probe runs the probe-vector max-cut heuristic: random directions in the
// vector space, each rounded to the bipartition maximizing the vector
// objective, best cut kept.
func Probe(g *graph.Graph, opts ProbeOptions) (*partition.Partition, float64, error) {
	n := g.N()
	if n < 2 {
		return nil, 0, fmt.Errorf("maxcut: need >= 2 vertices")
	}
	d := opts.D
	if d <= 0 || d > n {
		d = n
	}
	v, err := Instance(g, d)
	if err != nil {
		return nil, 0, err
	}
	res, err := probe.Bipartition(v, probe.Options{Probes: opts.Probes, Seed: opts.Seed})
	if err != nil {
		return nil, 0, err
	}
	// The probe maximizes Σ‖Y_h‖², which for the MinSum scaling is
	// (approximately, exactly at d = n) the doubled cut.
	p := res.Partition
	return p, Value(g, p), nil
}

// Greedy runs single-vertex local improvement from a random balanced
// start: move any vertex whose side change increases the cut, repeat to a
// local optimum. The classic 1/2-approximation baseline.
func Greedy(g *graph.Graph, seed int64) (*partition.Partition, float64) {
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(2)
	}
	// gain[i]: cut increase from flipping i = (same-side weight) −
	// (cross-side weight).
	improved := true
	for improved {
		improved = false
		for i := 0; i < n; i++ {
			var same, cross float64
			for _, h := range g.Adj(i) {
				if assign[h.To] == assign[i] {
					same += h.W
				} else {
					cross += h.W
				}
			}
			if same > cross {
				assign[i] = 1 - assign[i]
				improved = true
			}
		}
	}
	p := partition.MustNew(assign, 2)
	return p, Value(g, p)
}

// BruteForce returns the exact maximum cut by enumeration (n <= ~22).
func BruteForce(g *graph.Graph) (*partition.Partition, float64) {
	n := g.N()
	best := -1.0
	var bestAssign []int
	assign := make([]int, n)
	for mask := 0; mask < 1<<(n-1); mask++ { // fix vertex n-1 on side 0
		for i := 0; i < n-1; i++ {
			assign[i] = (mask >> i) & 1
		}
		assign[n-1] = 0
		p := partition.Partition{Assign: assign, K: 2}
		if v := Value(g, &p); v > best {
			best = v
			bestAssign = append([]int(nil), assign...)
		}
	}
	return partition.MustNew(bestAssign, 2), best
}
