package partest

import (
	"context"
	"testing"

	spectral "repro"
	"repro/internal/graph"
	"repro/internal/partition"
)

// mlOptions forces a real V-cycle on the small netlists these tests use:
// a low threshold guarantees several coarsening levels instead of a
// degenerate flat solve.
func mlOptions(k int, workers int) spectral.Options {
	return spectral.Options{K: k, Method: spectral.MultilevelMELO, CoarsenThreshold: 12, Parallelism: workers}
}

// TestMultilevelParallelismEquivalence: the multilevel V-cycle — matching,
// contraction, projection and the nested coarsest MELO solve — must
// produce bit-identical partitions at every worker count, for both the
// bipartition and k-way refinement paths.
func TestMultilevelParallelismEquivalence(t *testing.T) {
	for _, k := range []int{2, 4} {
		for _, seed := range []int64{3, 19} {
			h := RandomNetlist(180, 380, 5, seed)
			ref, err := spectral.PartitionCtx(context.Background(), h, mlOptions(k, 1))
			if err != nil {
				t.Fatalf("K=%d seed %d serial: %v", k, seed, err)
			}
			for _, w := range workerLevels[1:] {
				p, err := spectral.PartitionCtx(context.Background(), h, mlOptions(k, w))
				if err != nil {
					t.Fatalf("K=%d seed %d workers %d: %v", k, seed, w, err)
				}
				for i := range ref.Assign {
					if p.Assign[i] != ref.Assign[i] {
						t.Fatalf("K=%d seed %d: workers %d changed module %d's cluster (%d vs %d)",
							k, seed, w, i, p.Assign[i], ref.Assign[i])
					}
				}
			}
		}
	}
}

// TestMultilevelRunToRunStable: repeated runs in one process must agree
// exactly — the V-cycle has no hidden randomness (map iteration, seeds,
// time) anywhere in matching, contraction or refinement.
func TestMultilevelRunToRunStable(t *testing.T) {
	h := RandomNetlist(200, 420, 5, 41)
	ref, err := spectral.PartitionCtx(context.Background(), h, mlOptions(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		p, err := spectral.PartitionCtx(context.Background(), h, mlOptions(2, 0))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i := range ref.Assign {
			if p.Assign[i] != ref.Assign[i] {
				t.Fatalf("run %d: module %d moved between identical runs", run, i)
			}
		}
	}
}

// TestMultilevelInvariantsOnSeededNetlists: on 50+ seeded random
// netlists the V-cycle must deliver a complete K-way assignment with no
// empty cluster, and its partition must satisfy the paper's Theorem 1
// identity f(P_k) = trace(XᵀQX) on the clique-model graph — the same
// "cut three ways" agreement the flat invariant suite checks, now for
// multilevel-produced partitions.
func TestMultilevelInvariantsOnSeededNetlists(t *testing.T) {
	if testing.Short() {
		t.Skip("50-netlist sweep")
	}
	cases := 0
	for seed := int64(1); seed <= 26; seed++ {
		h := RandomNetlist(60+int(seed)*2, 130+int(seed)*4, 5, 500+seed)
		for _, k := range []int{2, 3} {
			p, err := spectral.PartitionCtx(context.Background(), h, mlOptions(k, 0))
			if err != nil {
				t.Fatalf("seed %d K=%d: %v", seed, k, err)
			}
			if p.K != k || p.N() != h.NumModules() {
				t.Fatalf("seed %d K=%d: got K=%d N=%d", seed, k, p.K, p.N())
			}
			for c, s := range p.Sizes() {
				if s == 0 {
					t.Fatalf("seed %d K=%d: cluster %d empty", seed, k, c)
				}
			}
			if cut := partition.NetCut(h, p); cut < 0 || cut > h.NumNets() {
				t.Fatalf("seed %d K=%d: net cut %d outside [0, %d]", seed, k, cut, h.NumNets())
			}
			g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
			if err != nil {
				t.Fatal(err)
			}
			if f, tr := partition.F(g, p), TraceXtQX(g, p); !relClose(f, tr, 1e-10) {
				t.Errorf("seed %d K=%d: f(P_k) = %v but trace(XᵀQX) = %v", seed, k, f, tr)
			}
			cases++
		}
	}
	if cases < 50 {
		t.Fatalf("only %d multilevel cases exercised, want >= 50", cases)
	}
}
