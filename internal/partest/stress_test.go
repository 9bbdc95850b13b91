package partest

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/melo"
	"repro/internal/parallel"
	"repro/internal/resilience"
)

// The stress tests hammer the parallel kernels from many goroutines at
// once — each caller itself running a multi-worker kernel — so `go test
// -race ./internal/partest/` exercises nested parallelism, the shared
// process-wide limit, and concurrent reads of shared operands.

func TestStressConcurrentMatVec(t *testing.T) {
	h := RandomNetlist(800, 2000, 6, 13)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Laplacian()
	x := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	want := make([]float64, g.N())
	q.MatVec(x, want)

	var wg sync.WaitGroup
	errc := make(chan string, 16)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got := make([]float64, g.N())
			for rep := 0; rep < 20; rep++ {
				q.MatVecPar(x, got, 1+c%5)
				for i := range want {
					if got[i] != want[i] {
						select {
						case errc <- "concurrent MatVecPar diverged from serial":
						default:
						}
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

func TestStressConcurrentOrderings(t *testing.T) {
	h := RandomNetlist(120, 260, 5, 17)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), 7, resilience.EigenPolicy{MinD: 7})
	if err != nil {
		t.Fatal(err)
	}
	dec := sol.Dec
	base := melo.NewOptions()
	base.D = 6
	base.Workers = 1
	ref, err := melo.Order(g, dec, base)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			opts := base
			opts.Workers = 1 + c%4
			res, err := melo.Order(g, dec, opts)
			if err != nil {
				select {
				case errc <- err.Error():
				default:
				}
				return
			}
			for i := range ref.Order {
				if res.Order[i] != ref.Order[i] {
					select {
					case errc <- "concurrent ordering diverged":
					default:
					}
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

func TestStressForUnderChangingLimit(t *testing.T) {
	// SetLimit races against running kernels by design (kernels resolve
	// their worker count at entry); results must stay correct throughout.
	defer parallel.SetLimit(0)
	const n = 5000
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	stop := make(chan struct{})
	var changer sync.WaitGroup
	changer.Add(1)
	go func() {
		defer changer.Done()
		for lim := 1; ; lim++ {
			select {
			case <-stop:
				return
			default:
				parallel.SetLimit(1 + lim%6)
			}
		}
	}()
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, n)
			for rep := 0; rep < 50; rep++ {
				parallel.For(0, n, 64, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						dst[i] = 2 * src[i]
					}
				})
				for i := range dst {
					if dst[i] != 2*src[i] {
						select {
						case errc <- "For dropped or corrupted an index under changing limit":
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	changer.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

func TestStressConcurrentOrthogonalize(t *testing.T) {
	const n, m = 600, 16
	basis := make([][]float64, m)
	for b := range basis {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((b*31+i)%23) - 11
		}
		linalg.Normalize(v)
		basis[b] = v
	}
	mk := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i%19) * 0.4
		}
		return v
	}
	want := mk()
	linalg.OrthogonalizeBlock(want, basis, 1)
	var wg sync.WaitGroup
	errc := make(chan string, 12)
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				got := mk()
				linalg.OrthogonalizeBlock(got, basis, 1+c%5)
				for i := range want {
					if got[i] != want[i] {
						select {
						case errc <- "concurrent OrthogonalizeBlock diverged":
						default:
						}
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}
