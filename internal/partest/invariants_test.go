package partest

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/vecpart"
)

// relClose reports |a−b| ≤ tol·max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestTheorem1TraceIdentity: Theorem 1 states f(P_k) = trace(XᵀQX) for
// the indicator matrix X of any partition — exactly, for any K and any
// clique model. Checked on 54 seeded random netlists (18 seeds × 3
// clique models) with K ∈ {2,4,8}.
func TestTheorem1TraceIdentity(t *testing.T) {
	models := []graph.CliqueModel{graph.Standard, graph.PartitioningSpecific, graph.Frankle}
	cases := 0
	for seed := int64(1); seed <= 18; seed++ {
		h := RandomNetlist(40+int(seed)*3, 90+int(seed)*5, 5, seed)
		for _, model := range models {
			g, err := graph.FromHypergraph(h, model)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4, 8} {
				p := RandomPartition(g.N(), k, seed*100+int64(k))
				f := partition.F(g, p)
				trace := TraceXtQX(g, p)
				if !relClose(f, trace, 1e-10) {
					t.Errorf("seed %d model %v K=%d: f(P_k) = %v but trace(XᵀQX) = %v", seed, model, k, f, trace)
				}
			}
			cases++
		}
	}
	if cases < 50 {
		t.Fatalf("only %d netlist cases exercised, want >= 50", cases)
	}
}

// TestMaxSumIdentity: with d = n, the MaxSum scaling satisfies
// Σ_h ‖Y_h‖² = n·H − f(P_k) (the max-sum duality the MELO objective
// maximizes), and MinSum satisfies Σ_h ‖Y_h‖² = f(P_k) (Corollary 5).
// PredictedCut must therefore reproduce f exactly under both scalings.
// Together with Theorem 1 this is the "cut three ways" agreement: edge
// scan, trace form, and vector-partitioning form.
func TestMaxSumIdentity(t *testing.T) {
	models := []graph.CliqueModel{graph.Standard, graph.PartitioningSpecific, graph.Frankle}
	cases := 0
	for seed := int64(1); seed <= 18; seed++ {
		h := RandomNetlist(25+int(seed)*2, 60+int(seed)*4, 5, 1000+seed)
		for _, model := range models {
			g, err := graph.FromHypergraph(h, model)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := FullDecomposition(g)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			hval := vecpart.ChooseH(g.TotalDegree(), dec.Values, n) // d = n: any H ≥ λ_n
			maxsum, err := vecpart.FromDecomposition(dec, n, vecpart.MaxSum, hval)
			if err != nil {
				t.Fatal(err)
			}
			minsum, err := vecpart.FromDecomposition(dec, n, vecpart.MinSum, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4, 8} {
				p := RandomPartition(n, k, seed*31+int64(k))
				f := partition.F(g, p)
				obj := maxsum.SumSquaredSubsets(p)
				if !relClose(obj, float64(n)*hval-f, 1e-8) {
					t.Errorf("seed %d model %v K=%d: Σ‖Y_h‖² = %v, want n·H − f = %v", seed, model, k, obj, float64(n)*hval-f)
				}
				if pc := maxsum.PredictedCut(p); !relClose(pc, f, 1e-8) {
					t.Errorf("seed %d model %v K=%d: MaxSum PredictedCut = %v, f = %v", seed, model, k, pc, f)
				}
				if pc := minsum.PredictedCut(p); !relClose(pc, f, 1e-8) {
					t.Errorf("seed %d model %v K=%d: MinSum PredictedCut = %v, f = %v", seed, model, k, pc, f)
				}
				if trace := TraceXtQX(g, p); !relClose(trace, f, 1e-10) {
					t.Errorf("seed %d model %v K=%d: trace form %v disagrees with edge scan %v", seed, model, k, trace, f)
				}
			}
			cases++
		}
	}
	if cases < 50 {
		t.Fatalf("only %d netlist cases exercised, want >= 50", cases)
	}
}

// TestTruncatedMaxSumBound: with d < n and the truncation-balanced H,
// the MaxSum objective over the first d coordinates can only shed
// nonnegative per-coordinate mass: each retained coordinate contributes
// (H−λ_j)·(xᵀu_j)² ≥ 0, so the d-dimensional objective is monotonically
// nondecreasing in d for a fixed partition. This is the structural fact
// behind "the more eigenvectors, the better".
func TestTruncatedMaxSumBound(t *testing.T) {
	h := RandomNetlist(48, 110, 5, 9)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := FullDecomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	hval := vecpart.ChooseH(g.TotalDegree(), dec.Values, n)
	for _, k := range []int{2, 4} {
		p := RandomPartition(n, k, int64(k))
		prev := math.Inf(-1)
		for d := 1; d <= n; d++ {
			v, err := vecpart.FromDecomposition(dec, d, vecpart.MaxSum, hval)
			if err != nil {
				t.Fatal(err)
			}
			obj := v.SumSquaredSubsets(p)
			if obj < prev-1e-8 {
				t.Fatalf("K=%d: MaxSum objective decreased from %v to %v at d=%d", k, prev, obj, d)
			}
			prev = obj
		}
	}
}
