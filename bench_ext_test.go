package spectral

// Benchmarks for the extension systems: direct vector k-partitioning,
// the max-cut reduction, probe bipartitioning, Hendrickson–Leland
// splitting, hierarchical clustering, spectral bounds, and the
// adaptive-H / clique-model ablations.

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/bounds"
	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/fm"
	"repro/internal/graph"
	"repro/internal/maxcut"
	"repro/internal/melo"
	"repro/internal/partition"
	"repro/internal/resilience"
)

// BenchmarkAblationVKP compares MELO+DP-RP against direct vector
// k-partitioning on the same instance: time and Scaled Cost.
func BenchmarkAblationVKP(b *testing.B) {
	c, err := bench.Lookup("prim1")
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	g, dec, _ := benchPipeline(b, 10)
	_ = g
	_ = dec
	b.Run("melo+dprp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := melo.Order(g, dec, melo.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			dp, err := dprp.Partition(h, res.Order, dprp.Options{K: 4})
			if err != nil {
				b.Fatal(err)
			}
			_ = dp.ScaledCost
		}
	})
	b.Run("vkp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := PartitionCtx(context.Background(), h, Options{K: 4, D: 10, Method: VKP})
			if err != nil {
				b.Fatal(err)
			}
			_ = partition.ScaledCost(h, p)
		}
	})
}

// BenchmarkAblationAdaptiveH measures MELO with and without the adaptive
// H re-estimation (the paper's Figure 2 Step 6).
func BenchmarkAblationAdaptiveH(b *testing.B) {
	g, dec, _ := benchPipeline(b, 10)
	for _, adaptive := range []bool{false, true} {
		name := "fixed-H"
		if adaptive {
			name = "adaptive-H"
		}
		b.Run(name, func(b *testing.B) {
			opts := melo.NewOptions()
			opts.AdaptiveH = adaptive
			for i := 0; i < b.N; i++ {
				if _, err := melo.Order(g, dec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCliqueModels compares the three clique models'
// expansion cost and resulting SB cut quality.
func BenchmarkAblationCliqueModels(b *testing.B) {
	c, err := bench.Lookup("prim1")
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range []graph.CliqueModel{graph.Standard, graph.PartitioningSpecific, graph.Frankle} {
		b.Run(model.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := graph.FromHypergraph(h, model)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := resilience.SolveEigen(context.Background(), g.Laplacian(), 2, resilience.EigenPolicy{MinD: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxCutProbe measures the §3 max-cut probe heuristic.
func BenchmarkMaxCutProbe(b *testing.B) {
	g := graph.RandomConnected(60, 180, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := maxcut.Probe(g, maxcut.ProbeOptions{Probes: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHypercubePartition measures the Hendrickson–Leland splitter.
func BenchmarkHypercubePartition(b *testing.B) {
	c, err := bench.Lookup("prim1")
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionCtx(context.Background(), h, Options{K: 8, Method: HL}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterTree measures hierarchical clustering construction.
func BenchmarkClusterTree(b *testing.B) {
	c, err := bench.Lookup("bm1")
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(h, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDonathHoffman measures the k-way lower bound (including its
// eigensolve).
func BenchmarkDonathHoffman(b *testing.B) {
	g := graph.RandomConnected(300, 900, 5)
	sizes := []int{100, 100, 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.DonathHoffman(g, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeBipartition measures the Frankle–Karp probe search.
func BenchmarkProbeBipartition(b *testing.B) {
	c, err := bench.Lookup("prim1")
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProbeBipartition(h, 8, 16, 0.45); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockKrylov measures the block eigensolver on a degenerate
// spectrum where single-vector Lanczos needs restarts.
func BenchmarkBlockKrylov(b *testing.B) {
	// The cycle's tightly clustered degenerate spectrum is the hard case;
	// MaxDim = n guarantees exact Rayleigh-Ritz in the limit.
	g := graph.Cycle(150)
	lap := g.Laplacian()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigen.BlockKrylov(lap, 5, &eigen.BlockKrylovOptions{Block: 2, Tol: 1e-7, MaxDim: 150}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMRefinePass measures a full FM refinement on a random start,
// complementing BenchmarkAblationFM's refinement of a good MELO start.
func BenchmarkFMRefinePass(b *testing.B) {
	c, err := bench.Lookup("bm1")
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	n := h.NumModules()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % 2
	}
	p := partition.MustNew(assign, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fm.Refine(h, p, fm.Options{MinFrac: 0.45})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cut > res.InitialCut {
			b.Fatal("FM worsened the cut")
		}
	}
}
