package melo

import (
	"math"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/vecpart"
)

// fullDecomposition returns all n eigenpairs of g's Laplacian — the
// exact d = n setting of the paper's Corollaries 5 and 6.
func fullDecomposition(t *testing.T, g *graph.Graph) *eigen.Decomposition {
	t.Helper()
	dec, err := eigen.SymEig(g.LaplacianDense())
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestCorollary6VectorNorms: under the MinSum scaling with d = n,
// ‖y_iⁿ‖² = deg(v_i) for every vertex — the vector magnitudes encode
// the degrees exactly (Corollary 6).
func TestCorollary6VectorNorms(t *testing.T) {
	for _, seed := range []int64{3, 5} {
		g := graph.RandomConnected(40, 100, seed)
		dec := fullDecomposition(t, g)
		v, err := vecpart.FromDecomposition(dec, g.N(), vecpart.MinSum, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.N(); i++ {
			ns := linalg.NormSq(v.Row(i))
			deg := g.Degree(i)
			if math.Abs(ns-deg) > 1e-8*(1+deg) {
				t.Errorf("seed %d: ‖y_%d‖² = %v, deg = %v", seed, i, ns, deg)
			}
		}
	}
}

// TestMinSumNormsMonotoneInD: each vertex's truncated MinSum norm
// ‖y_i^d‖² is a sum of nonnegative per-coordinate terms λ_j·U[i][j]², so
// it is nondecreasing in d and reaches deg(v_i) at d = n. More
// eigenvectors can only move the vectors closer to their exact geometry.
func TestMinSumNormsMonotoneInD(t *testing.T) {
	g := graph.RandomConnected(30, 70, 7)
	dec := fullDecomposition(t, g)
	n := g.N()
	prev := make([]float64, n)
	for d := 1; d <= n; d++ {
		v, err := vecpart.FromDecomposition(dec, d, vecpart.MinSum, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ns := linalg.NormSq(v.Row(i))
			if ns < prev[i]-1e-10 {
				t.Fatalf("vertex %d: norm decreased from %v to %v at d=%d", i, prev[i], ns, d)
			}
			prev[i] = ns
		}
	}
	for i := 0; i < n; i++ {
		deg := g.Degree(i)
		if math.Abs(prev[i]-deg) > 1e-8*(1+deg) {
			t.Errorf("vertex %d: ‖y_i^n‖² = %v, deg = %v", i, prev[i], deg)
		}
	}
}

// TestMinSumObjectiveMonotoneInD: for a fixed partition, the truncated
// MinSum objective Σ_h ‖Y_h^d‖² is nondecreasing in d (each coordinate
// adds λ_j·(Y_h[j])² ≥ 0) and equals f(P_k) exactly at d = n
// (Corollary 5) — the monotone lower-bound ladder that justifies using
// as many eigenvectors as the solver can afford.
func TestMinSumObjectiveMonotoneInD(t *testing.T) {
	g := graph.RandomConnected(32, 80, 11)
	dec := fullDecomposition(t, g)
	n := g.N()
	for _, k := range []int{2, 4} {
		assign := make([]int, n)
		for i := range assign {
			assign[i] = (i*7 + k) % k
		}
		p := partition.MustNew(assign, k)
		f := partition.F(g, p)
		prev := math.Inf(-1)
		for d := 1; d <= n; d++ {
			v, err := vecpart.FromDecomposition(dec, d, vecpart.MinSum, 0)
			if err != nil {
				t.Fatal(err)
			}
			obj := v.SumSquaredSubsets(p)
			if obj < prev-1e-8 {
				t.Fatalf("K=%d: objective decreased from %v to %v at d=%d", k, prev, obj, d)
			}
			if obj > f+1e-8*(1+f) {
				t.Fatalf("K=%d d=%d: truncated objective %v exceeds f = %v", k, d, obj, f)
			}
			prev = obj
		}
		if math.Abs(prev-f) > 1e-8*(1+f) {
			t.Errorf("K=%d: Σ‖Y_h^n‖² = %v, f(P_k) = %v", k, prev, f)
		}
	}
}
