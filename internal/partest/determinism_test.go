package partest

import (
	"context"
	"testing"

	spectral "repro"
)

// TestOrderingByteIdentical: same seed and same parallelism must give a
// byte-identical ordering from OrderModulesWithSpectrum — the regression gate
// for any future kernel change that would sneak order-sensitive float
// accumulation into the pipeline (the graph-degree map-order bug this
// suite originally caught).
func TestOrderingByteIdentical(t *testing.T) {
	for _, seed := range []int64{0, 3} {
		h, err := spectral.GenerateBenchmarkSeeded("bm1", 1.0, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := spectral.OrderModulesWithSpectrum(context.Background(), h, nil, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			order, err := spectral.OrderModulesWithSpectrum(context.Background(), h, nil, 6, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if order[i] != ref[i] {
					t.Fatalf("seed %d trial %d: ordering diverges at position %d (%d vs %d)",
						seed, trial, i, order[i], ref[i])
				}
			}
		}
	}
}

// TestPartitionRunToRunStable: repeated Partition calls on the same
// netlist and options give the identical partition, at serial and
// parallel settings.
func TestPartitionRunToRunStable(t *testing.T) {
	h, err := spectral.GenerateBenchmarkSeeded("bm1", 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		opts := spectral.Options{K: 4, Method: spectral.MELO, Parallelism: par}
		ref, err := spectral.PartitionCtx(context.Background(), h, opts)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			p, err := spectral.PartitionCtx(context.Background(), h, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Assign {
				if p.Assign[i] != ref.Assign[i] {
					t.Fatalf("parallelism %d trial %d: module %d moved (%d vs %d)",
						par, trial, i, p.Assign[i], ref.Assign[i])
				}
			}
		}
	}
}

// TestBenchmarkPartitionParallelismInvariant: on the paper's seed
// benchmarks, the parallelism level must not change the chosen
// partition.
func TestBenchmarkPartitionParallelismInvariant(t *testing.T) {
	for _, name := range []string{"bm1", "prim1"} {
		scale := 1.0
		if name == "prim1" {
			scale = 0.4 // keep the suite fast; the contract is scale-free
		}
		h, err := spectral.GenerateBenchmarkSeeded(name, scale, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4} {
			ref, err := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: k, Method: spectral.MELO, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			for _, par := range []int{2, 4, 8} {
				p, err := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: k, Method: spectral.MELO, Parallelism: par})
				if err != nil {
					t.Fatalf("%s K=%d parallelism %d: %v", name, k, par, err)
				}
				for i := range ref.Assign {
					if p.Assign[i] != ref.Assign[i] {
						t.Fatalf("%s K=%d: parallelism %d moved module %d (%d vs %d)",
							name, k, par, i, p.Assign[i], ref.Assign[i])
					}
				}
			}
		}
	}
}
