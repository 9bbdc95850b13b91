package partest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/melo"
	"repro/internal/parallel"
	"repro/internal/resilience"
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

func benchLanczos(b *testing.B, workers int) {
	g := benchGraph(b, 4000)
	q := g.Laplacian()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigen.Lanczos(q, 8, &eigen.LanczosOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosSerial(b *testing.B)   { benchLanczos(b, 1) }
func BenchmarkLanczosParallel(b *testing.B) { benchLanczos(b, parallel.Limit()) }

func benchMELO(b *testing.B, workers int) {
	g := benchGraph(b, 2000)
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), 9, resilience.EigenPolicy{MinD: 9})
	if err != nil {
		b.Fatal(err)
	}
	dec := sol.Dec
	opts := melo.NewOptions()
	opts.D = 8
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := melo.Order(g, dec, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMELOSerial(b *testing.B)   { benchMELO(b, 1) }
func BenchmarkMELOParallel(b *testing.B) { benchMELO(b, parallel.Limit()) }
