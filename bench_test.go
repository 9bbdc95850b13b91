package spectral

// One benchmark per paper table/figure plus the ablations called out in
// DESIGN.md. Each BenchmarkTableN regenerates the corresponding table on
// a reduced-scale suite (the full-scale run is `cmd/experiments -all`;
// see EXPERIMENTS.md for recorded full-scale results). The scale can be
// overridden:
//
//	go test -bench=Table -benchscale 0.3

import (
	"context"
	"flag"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/melo"
	"repro/internal/partition"
	"repro/internal/resilience"
)

var benchScale = flag.Float64("benchscale", 0.15, "benchmark suite scale for table benchmarks")

func tableLab(b *testing.B) *experiments.Lab {
	b.Helper()
	return experiments.NewLab(experiments.Config{Out: io.Discard, Scale: *benchScale})
}

func runTable(b *testing.B, f func(*experiments.Lab) error) {
	b.Helper()
	lab := tableLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runTable(b, experiments.Table1) }
func BenchmarkTable2(b *testing.B) { runTable(b, experiments.Table2) }
func BenchmarkTable3(b *testing.B) { runTable(b, experiments.Table3) }
func BenchmarkTable4(b *testing.B) { runTable(b, experiments.Table4) }
func BenchmarkTable5(b *testing.B) { runTable(b, experiments.Table5) }

func BenchmarkFigure1(b *testing.B) { runTable(b, experiments.Figure1) }
func BenchmarkFigure2(b *testing.B) { runTable(b, experiments.Figure2) }

// benchPipeline prepares the prim1 instance at the current scale.
func benchPipeline(b *testing.B, d int) (*graph.Graph, *eigen.Decomposition, *Netlist) {
	b.Helper()
	return benchPipelineOn(b, "prim1", *benchScale, d)
}

// benchPipelineOn is benchPipeline on a named circuit at a given scale.
func benchPipelineOn(b *testing.B, circuit string, scale float64, d int) (*graph.Graph, *eigen.Decomposition, *Netlist) {
	b.Helper()
	c, err := bench.Lookup(circuit)
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(scale))
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), d+1, resilience.EigenPolicy{MinD: d + 1})
	if err != nil {
		b.Fatal(err)
	}
	return g, sol.Dec, h
}

// BenchmarkAblationSchemes measures each MELO weighting scheme's ordering
// construction (Ablation A in DESIGN.md).
func BenchmarkAblationSchemes(b *testing.B) {
	g, dec, _ := benchPipeline(b, 10)
	for s := melo.Scheme(0); s < melo.NumSchemes; s++ {
		b.Run(s.String(), func(b *testing.B) {
			opts := melo.NewOptions()
			opts.Scheme = s
			for i := 0; i < b.N; i++ {
				if _, err := melo.Order(g, dec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEigen compares the dense and Lanczos eigensolvers on
// the same Laplacian (Ablation B).
func BenchmarkAblationEigen(b *testing.B) {
	g := graph.RandomConnected(400, 1600, 7)
	lap := g.Laplacian()
	b.Run("lanczos-d6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eigen.Lanczos(lap, 6, &eigen.LanczosOptions{Tol: 1e-6, MaxDim: 400}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-full", func(b *testing.B) {
		dm := lap.ToDense()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eigen.SymEig(dm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFM measures FM refinement on top of a MELO bipartition
// (Ablation C: the paper's iterative-improvement future-work item).
func BenchmarkAblationFM(b *testing.B) {
	g, dec, h := benchPipeline(b, 10)
	res, err := melo.Order(g, dec, melo.NewOptions())
	if err != nil {
		b.Fatal(err)
	}
	split, err := dprp.BestBalancedSplit(h, res.Order, 0.45)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := fm.Refine(h, split.Partition, fm.Options{MinFrac: 0.45})
		if err != nil {
			b.Fatal(err)
		}
		if out.Cut > out.InitialCut {
			b.Fatal("FM worsened the cut")
		}
	}
}

// BenchmarkMeloOrder isolates the O(d·n²) ordering construction.
func BenchmarkMeloOrder(b *testing.B) {
	g, dec, _ := benchPipeline(b, 10)
	opts := melo.NewOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := melo.Order(g, dec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPRP isolates the dynamic-programming splitter: K=10 on the
// table-scale prim1, and the K=3 and K=4 splits of full-size prim2
// (n ≈ 3000, where the block-cost window is widest).
func BenchmarkDPRP(b *testing.B) {
	for _, c := range []struct {
		circuit string
		scale   float64
		ks      []int
	}{
		{"prim1", *benchScale, []int{10}},
		{"prim2", 1, []int{3, 4}},
	} {
		g, dec, h := benchPipelineOn(b, c.circuit, c.scale, 10)
		res, err := melo.Order(g, dec, melo.NewOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range c.ks {
			b.Run(fmt.Sprintf("%s/K=%d", c.circuit, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := dprp.Partition(h, res.Order, dprp.Options{K: k}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLaplacianEigensolve isolates the Lanczos solve that dominates
// the full pipeline.
func BenchmarkLaplacianEigensolve(b *testing.B) {
	c, err := bench.Lookup("prim2")
	if err != nil {
		b.Fatal(err)
	}
	h, err := bench.Generate(c.Scaled(*benchScale))
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		b.Fatal(err)
	}
	lap := g.Laplacian()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resilience.SolveEigen(context.Background(), lap, 11, resilience.EigenPolicy{MinD: 11}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetCut exercises the hot metric used across every experiment.
func BenchmarkNetCut(b *testing.B) {
	_, _, h := benchPipeline(b, 2)
	assign := make([]int, h.NumModules())
	for i := range assign {
		assign[i] = i % 2
	}
	p := partition.MustNew(assign, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if partition.NetCut(h, p) < 0 {
			b.Fatal("impossible")
		}
	}
}

// mlBenchNetlist synthesizes the n-module timing netlist of the
// flat-vs-multilevel pair: a chain of two-pin nets plus up to 5n/2
// three-pin nets whose pins a multiplicative congruence spreads over the
// modules, deterministic without math/rand.
func mlBenchNetlist(b *testing.B, n int) *Netlist {
	bl := hypergraph.NewBuilder()
	bl.AddModules(n)
	for i := 0; i+1 < n; i++ {
		if err := bl.AddNet(fmt.Sprintf("c%d", i), i, i+1); err != nil {
			b.Fatal(err)
		}
	}
	state := uint64(12345)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for e := 0; e < 5*n/2; e++ {
		u, v, z := next(n), next(n), next(n)
		if u == v || v == z || u == z {
			continue
		}
		if err := bl.AddNet(fmt.Sprintf("r%d", e), u, v, z); err != nil {
			b.Fatal(err)
		}
	}
	return bl.Build()
}

func benchBipartition(b *testing.B, m Method) {
	for _, n := range []int{1000, 10000} {
		h := mlBenchNetlist(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlatMELO and BenchmarkMultilevelMELO are the pair behind
// DESIGN's multilevel-over-flat speedup: the same K=2 bipartition of one
// netlist at n = 10³ and 10⁴, through the O(d·n²) flat pipeline and the
// coarsen→solve→uncoarsen V-cycle.
func BenchmarkFlatMELO(b *testing.B)       { benchBipartition(b, MELO) }
func BenchmarkMultilevelMELO(b *testing.B) { benchBipartition(b, MultilevelMELO) }
