package partest

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/melo"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// benchGraph synthesizes a large netlist-derived Laplacian once per
// size; n = 20000 is the ISSUE's speedup-measurement size.
var benchGraphs = map[int]*graph.Graph{}

func benchGraph(b *testing.B, n int) *graph.Graph {
	if g, ok := benchGraphs[n]; ok {
		return g
	}
	h := RandomNetlist(n, 5*n/2, 6, 99)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[n] = g
	return g
}

func benchMatVec(b *testing.B, n, workers int) {
	g := benchGraph(b, n)
	q := g.Laplacian()
	x := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i%13) * 0.3
	}
	y := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MatVecPar(x, y, workers)
	}
}

func BenchmarkMatVecSerial(b *testing.B)   { benchMatVec(b, 20000, 1) }
func BenchmarkMatVecParallel(b *testing.B) { benchMatVec(b, 20000, parallel.Limit()) }

func BenchmarkMatVecWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=20000/workers=%d", w), func(b *testing.B) {
			benchMatVec(b, 20000, w)
		})
	}
}

func benchLanczos(b *testing.B, n, workers int) {
	g := benchGraph(b, n)
	q := g.Laplacian()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigen.Lanczos(q, 8, &eigen.LanczosOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosSerial(b *testing.B)   { benchLanczos(b, 4000, 1) }
func BenchmarkLanczosParallel(b *testing.B) { benchLanczos(b, 4000, parallel.Limit()) }

// n = 20000 sits above the 4096-row MatVec shard cutoff, so unlike the
// n = 4000 pair the parallel case really shards the solve's MatVecs.
func BenchmarkLanczosSerialN20000(b *testing.B)   { benchLanczos(b, 20000, 1) }
func BenchmarkLanczosParallelN20000(b *testing.B) { benchLanczos(b, 20000, parallel.Limit()) }

// meloFixture returns the n = 2000 graph and its 9-pair spectrum the
// MELO benchmarks order.
func meloFixture(b *testing.B) (*graph.Graph, *eigen.Decomposition) {
	g := benchGraph(b, 2000)
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), 9, resilience.EigenPolicy{MinD: 9})
	if err != nil {
		b.Fatal(err)
	}
	return g, sol.Dec
}

func meloOrder(b *testing.B, g *graph.Graph, dec *eigen.Decomposition, workers int) {
	opts := melo.NewOptions()
	opts.D = 8
	opts.Workers = workers
	if _, err := melo.Order(g, dec, opts); err != nil {
		b.Fatal(err)
	}
}

func benchMELO(b *testing.B, workers int) {
	g, dec := meloFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meloOrder(b, g, dec, workers)
	}
}

func BenchmarkMELOSerial(b *testing.B)   { benchMELO(b, 1) }
func BenchmarkMELOParallel(b *testing.B) { benchMELO(b, parallel.Limit()) }

// BenchmarkMELOScanWorkers times a d = 10 MELO ordering, the cold-flat
// job's, at the sizes around melo's scan grain: n = 1000 and 3000 fit
// one shard and run serially at every worker count, n = 10⁴ shards.
// The kernel-scaling CI step runs it at GOMAXPROCS 1, 2 and 4.
func BenchmarkMELOScanWorkers(b *testing.B) {
	for _, n := range []int{1000, 3000, 10000} {
		g := benchGraph(b, n)
		sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), 11, resilience.EigenPolicy{MinD: 11})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				opts := melo.NewOptions()
				opts.Workers = w
				for i := 0; i < b.N; i++ {
					if _, err := melo.Order(g, sol.Dec, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// traceOverheadBound is the largest time ratio BenchmarkTraceOverhead
// accepts between a kernel run under a disabled global tracer and the
// same kernel with no tracer at all.
const traceOverheadBound = 1.15

// traceOverheadReps is how many untraced/traced timing pairs each kernel
// gets.
const traceOverheadReps = 11

// BenchmarkTraceOverhead checks the tracer's no-op guarantee: in one
// process it times MatVec (n = 20000), Lanczos (n = 4000) and MELO
// (n = 2000) with no tracer and with a disabled global tracer, and
// fails when a kernel's ratio exceeds traceOverheadBound. Both timings
// come from the same process, so the ratio does not depend on the
// machine. The ratio is the median over traceOverheadReps back-to-back
// pairs, the side that runs first alternating: on a shared VM single
// Lanczos solves vary by ±25%, and a best-of-N ratio flapped between
// 0.81 and 1.38 on an unchanged tree. Run it with
//
//	go test -run '^$' -bench TraceOverhead -benchtime 1x ./internal/partest/
func BenchmarkTraceOverhead(b *testing.B) {
	big := benchGraph(b, 20000)
	q := big.Laplacian()
	x := make([]float64, big.N())
	for i := range x {
		x[i] = float64(i%13) * 0.3
	}
	y := make([]float64, big.N())
	qm := benchGraph(b, 4000).Laplacian()
	g, dec := meloFixture(b)
	workers := parallel.Limit()
	kernels := []struct {
		name string
		fn   func()
	}{
		{"matvec", func() { q.MatVecPar(x, y, workers) }},
		{"lanczos", func() {
			if _, err := eigen.Lanczos(qm, 8, &eigen.LanczosOptions{Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}},
		{"melo", func() { meloOrder(b, g, dec, workers) }},
	}

	prev := trace.Global()
	defer trace.SetGlobal(prev)
	off := trace.New()
	off.SetEnabled(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			k.fn() // warm-up
			ratios := make([]float64, traceOverheadReps)
			for r := range ratios {
				var base, traced time.Duration
				if r%2 == 0 {
					base, traced = timedWith(nil, k.fn), timedWith(off, k.fn)
				} else {
					traced, base = timedWith(off, k.fn), timedWith(nil, k.fn)
				}
				ratios[r] = traced.Seconds() / base.Seconds()
			}
			sort.Float64s(ratios)
			ratio := ratios[len(ratios)/2]
			b.ReportMetric(ratio, k.name+"-ratio")
			if ratio > traceOverheadBound {
				b.Fatalf("%s: disabled tracer / no tracer median ratio %.3f exceeds %.2f (ratios %.3f)",
					k.name, ratio, traceOverheadBound, ratios)
			}
		}
	}
}

// timedWith times one call of fn with t installed as the global tracer.
func timedWith(t *trace.Tracer, fn func()) time.Duration {
	trace.SetGlobal(t)
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
