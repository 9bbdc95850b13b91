package spectral

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestPartitionCtxConcurrent hammers the facade from many goroutines —
// some sharing one netlist, some with private copies — to prove the
// pipeline holds no hidden shared state. Run with -race.
func TestPartitionCtxConcurrent(t *testing.T) {
	shared := smallBenchmark(t)
	const goroutines = 8

	methods := []Method{MELO, SB, SFC, KP}
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines)

	// Half the goroutines share one hypergraph; reads must be safe.
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := methods[i%len(methods)]
			k := 2
			if m != SB { // SB is a bipartitioner
				k += i % 2 * 2 // 2 or 4
			}
			p, err := PartitionCtx(context.Background(), shared, Options{K: k, Method: m})
			if err != nil {
				errs <- fmt.Errorf("shared %v k=%d: %w", m, k, err)
				return
			}
			if p.K != k || p.N() != shared.NumModules() {
				errs <- fmt.Errorf("shared %v k=%d: wrong shape", m, k)
			}
		}(i)
	}

	// The other half each generate a distinct netlist.
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := GenerateBenchmarkSeeded("prim1", 0.1, int64(100+i))
			if err != nil {
				errs <- fmt.Errorf("distinct gen %d: %w", i, err)
				return
			}
			p, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MELO})
			if err != nil {
				errs <- fmt.Errorf("distinct %d: %w", i, err)
				return
			}
			if p.N() != h.NumModules() {
				errs <- fmt.Errorf("distinct %d: wrong shape", i)
			}
		}(i)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOrderModulesCtxConcurrent exercises concurrent orderings over one
// shared netlist and checks each result is a permutation.
func TestOrderModulesCtxConcurrent(t *testing.T) {
	h := smallBenchmark(t)
	const goroutines = 6

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			order, err := OrderModulesWithSpectrum(context.Background(), h, nil, 4+i%3, i%2)
			if err != nil {
				errs <- fmt.Errorf("order %d: %w", i, err)
				return
			}
			seen := make([]bool, h.NumModules())
			for _, v := range order {
				if v < 0 || v >= len(seen) || seen[v] {
					errs <- fmt.Errorf("order %d: not a permutation", i)
					return
				}
				seen[v] = true
			}
			if len(order) != len(seen) {
				errs <- fmt.Errorf("order %d: length %d, want %d", i, len(order), len(seen))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPartitionWithSpectrumConcurrent shares one precomputed spectrum
// across goroutines — the reuse path must be read-only.
func TestPartitionWithSpectrumConcurrent(t *testing.T) {
	h := smallBenchmark(t)
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 2 + i%3
			p, err := PartitionWithSpectrum(context.Background(), h, sp, Options{K: k, Method: MELO, D: 10})
			if err != nil {
				errs <- fmt.Errorf("spectrum k=%d: %w", k, err)
				return
			}
			if p.K != k {
				errs <- fmt.Errorf("spectrum k=%d: got K=%d", k, p.K)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
