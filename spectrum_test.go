package spectral

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/resilience"
)

// failingEigenPolicy makes every eigensolve attempt fail hard, dense
// and sparse rungs alike. Any code path that reaches the eigensolver
// under this policy errors out, so a successful run proves the
// eigensolve was skipped.
func failingEigenPolicy() resilience.EigenPolicy {
	fail := make([]int, 200)
	for i := range fail {
		fail[i] = i + 1
	}
	return resilience.EigenPolicy{Faults: &resilience.FaultPlan{FailAttempts: fail}}
}

func TestDecomposeAccessors(t *testing.T) {
	h := smallBenchmark(t)
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Modules() != h.NumModules() {
		t.Errorf("Modules = %d, want %d", sp.Modules(), h.NumModules())
	}
	if sp.Model() != ModelPartitioningSpecific {
		t.Errorf("Model = %v", sp.Model())
	}
	if sp.D() != 10 || sp.Pairs() != 11 {
		t.Errorf("D = %d, Pairs = %d, want 10, 11", sp.D(), sp.Pairs())
	}
	vals := sp.Eigenvalues()
	if len(vals) != 11 {
		t.Fatalf("len(Eigenvalues) = %d", len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Errorf("eigenvalues not ascending at %d: %v < %v", i, vals[i], vals[i-1])
		}
	}
	if vals[0] > 1e-8 {
		t.Errorf("trivial eigenvalue = %v, want ~0", vals[0])
	}
}

func TestDecomposeValidation(t *testing.T) {
	h := smallBenchmark(t)
	if _, err := DecomposeCtx(context.Background(), nil, ModelPartitioningSpecific, 5); err == nil {
		t.Error("nil netlist accepted")
	}
	if _, err := DecomposeCtx(context.Background(), h, Model(42), 5); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 0); err == nil {
		t.Error("d = 0 accepted")
	}
}

// A compatible spectrum must be reused outright: under a policy where
// any eigensolve fails, partitioning succeeds with the spectrum and
// fails without it.
func TestPartitionWithSpectrumSkipsEigensolve(t *testing.T) {
	h := smallBenchmark(t)
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []Options{
		{K: 2, Method: MELO},
		{K: 4, Method: MELO},
		{K: 2, Method: SB},
		{K: 2, Method: SFC},
		{K: 3, Method: SFC},
		{K: 4, Method: HL},
		{K: 4, Method: VKP},
	}
	for _, opts := range cases {
		// Sanity: without a spectrum the failing policy must error.
		if _, err := runPartition(ctx, h, nil, opts, failingEigenPolicy()); err == nil {
			t.Fatalf("%v K=%d: failing policy did not fail without a spectrum", opts.Method, opts.K)
		}
		p, err := runPartition(ctx, h, sp, opts, failingEigenPolicy())
		if err != nil {
			t.Errorf("%v K=%d: eigensolve ran despite compatible spectrum: %v", opts.Method, opts.K, err)
			continue
		}
		validPartition(t, h, p, opts.withDefaults().K)
	}
}

// A mismatched model or an undersized spectrum must NOT be silently
// reused: the pipeline computes a fresh decomposition instead.
func TestPartitionWithSpectrumMismatchRecomputes(t *testing.T) {
	h := smallBenchmark(t)
	ctx := context.Background()
	ps10, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	// KP needs the Frankle model: with a failing policy the fresh solve
	// errors, proving the wrong-model spectrum was not reused.
	if _, err := runPartition(ctx, h, ps10, Options{K: 2, Method: KP}, failingEigenPolicy()); err == nil {
		t.Error("KP silently reused a partitioning-specific spectrum")
	}
	// Undersized: MELO with D=10 offered only 2 eigenvectors.
	ps2, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPartition(ctx, h, ps2, Options{K: 2, Method: MELO, D: 10}, failingEigenPolicy()); err == nil {
		t.Error("undersized spectrum was reused for a larger request")
	}
	// And without the failing policy the same calls succeed by
	// recomputing, matching the spectrum-free pipeline exactly.
	got, err := PartitionWithSpectrum(ctx, h, ps2, Options{K: 2, Method: MELO, D: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := PartitionCtx(ctx, h, Options{K: 2, Method: MELO, D: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Assign, want.Assign) {
		t.Error("recomputed-path result differs from PartitionCtx")
	}
}

// Reusing a spectrum of the exact size the method would solve for must
// give the identical partitioning the one-shot pipeline produces (the
// solver is deterministic). Methods that need fewer eigenvectors than
// the spectrum holds (e.g. SFC under a d=10 spectrum) take a truncated
// prefix of a larger solve, whose vectors can differ from a small
// direct solve by sign — there we require a valid result, not an
// identical one (TestPartitionWithSpectrumSkipsEigensolve covers them).
func TestPartitionWithSpectrumMatchesDirect(t *testing.T) {
	h := smallBenchmark(t)
	ctx := context.Background()
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{K: 2, Method: MELO},
		{K: 4, Method: MELO},
	} {
		got, err := PartitionWithSpectrum(ctx, h, sp, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Method, err)
		}
		want, err := PartitionCtx(ctx, h, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Method, err)
		}
		if !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Errorf("%v K=%d: spectrum-reuse result differs from direct pipeline", opts.Method, opts.K)
		}
	}
}

func TestOrderModulesWithSpectrum(t *testing.T) {
	h := smallBenchmark(t)
	ctx := context.Background()
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Under the failing policy only the spectrum path can succeed.
	got, err := order(ctx, h, sp, 10, 1, failingEigenPolicy())
	if err != nil {
		t.Fatal(err)
	}
	want, err := OrderModulesWithSpectrum(ctx, h, nil, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("spectrum-reuse ordering differs from a cold ordering")
	}
	if _, err := order(ctx, h, nil, 10, 1, failingEigenPolicy()); err == nil {
		t.Error("failing policy did not fail without a spectrum")
	}
}

func TestSpectrumSpec(t *testing.T) {
	cases := []struct {
		opts Options
		want SpectrumSpec
	}{
		{Options{K: 2, Method: MELO}, SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 10}},
		{Options{}, SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 10}},
		{Options{K: 2, Method: MELO, D: 4}, SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 4}},
		{Options{K: 2, Method: SB}, SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 1}},
		{Options{K: 5, Method: SFC}, SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 2}},
		{Options{K: 3, Method: KP}, SpectrumSpec{Needed: true, Model: ModelFrankle, D: 3}},
		{Options{K: 8, Method: HL}, SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 3}},
		{Options{K: 6, Method: VKP}, SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 10}},
		{Options{K: 2, Method: RSB}, SpectrumSpec{}},
		{Options{K: 2, Method: Placement}, SpectrumSpec{}},
		{Options{K: 3, Method: Barnes}, SpectrumSpec{}},
	}
	for _, c := range cases {
		if got := c.opts.SpectrumSpec(); got != c.want {
			t.Errorf("%v K=%d: spec = %+v, want %+v", c.opts.Method, c.opts.K, got, c.want)
		}
	}
}

func TestDecomposeCancelled(t *testing.T) {
	h := smallBenchmark(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecomposeCtx(ctx, h, ModelPartitioningSpecific, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
