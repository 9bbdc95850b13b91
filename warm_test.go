package spectral

import (
	"context"
	"math"
	"testing"

	"repro/internal/delta"
	"repro/internal/eigen"
	"repro/internal/linalg"
	"repro/internal/resilience"
	"repro/internal/trace"
)

func warmTestCtx() (context.Context, *trace.Tracer) {
	tr := trace.New()
	return trace.WithTracer(context.Background(), tr), tr
}

func warmBase(t *testing.T, scale float64, seed int64) *Netlist {
	t.Helper()
	h, err := GenerateBenchmarkSeeded("prim1", scale, seed)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return h
}

func assignsEqual(a, b *Partitioning) bool {
	if a.K != b.K || len(a.Assign) != len(b.Assign) {
		return false
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return false
		}
	}
	return true
}

// TestDecomposeWarmAcceptedOnAreaOnlyDelta: an area-only delta leaves
// the Laplacian untouched, so the base spectrum must be accepted
// outright — no eigensolve — and the downstream partition must match a
// cold solve of the delta netlist bit-for-bit.
func TestDecomposeWarmAcceptedOnAreaOnlyDelta(t *testing.T) {
	ctx, tr := warmTestCtx()
	base := warmBase(t, 0.5, 42)
	seed, err := DecomposeCtx(ctx, base, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatalf("base decompose: %v", err)
	}
	mut, _, err := delta.Apply(base, &delta.Delta{SetAreas: []delta.AreaChange{{Module: 3, Area: 2.5}}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	warm, info, err := DecomposeWarmCtxPolicy(ctx, mut, ModelPartitioningSpecific, 10, seed, eigenPolicyZero())
	if err != nil {
		t.Fatalf("warm decompose: %v", err)
	}
	if info.Outcome != WarmOutcomeAccepted {
		t.Fatalf("outcome = %q (reason %q, res %g scale %g), want accepted", info.Outcome, info.Reason, info.MaxResidual, info.Scale)
	}
	if tr.Counter("eigen.warmstart.accepted") != 1 {
		t.Fatalf("accepted counter = %d, want 1", tr.Counter("eigen.warmstart.accepted"))
	}
	// The accepted spectrum's eigenvectors are the seed's, bit-for-bit.
	for j := 0; j < warm.dec.D(); j++ {
		for i := 0; i < mut.NumModules(); i++ {
			if warm.dec.Vectors.At(i, j) != seed.dec.Vectors.At(i, j) {
				t.Fatalf("accepted spectrum differs from seed at (%d,%d)", i, j)
			}
		}
	}

	opts := Options{Method: MELO, K: 2, D: 10}
	pw, err := PartitionWithSpectrum(ctx, mut, warm, opts)
	if err != nil {
		t.Fatalf("warm partition: %v", err)
	}
	pc, err := PartitionCtx(ctx, mut, opts)
	if err != nil {
		t.Fatalf("cold partition: %v", err)
	}
	if !assignsEqual(pw, pc) {
		t.Fatal("accepted warm partition differs from cold partition")
	}
	if NetCut(mut, pw) != NetCut(mut, pc) {
		t.Fatal("warm and cold cuts differ")
	}
}

// TestDecomposeWarmSeededOnStructuralDelta: removing and adding nets
// perturbs the operator beyond the acceptance tolerance; the solve must
// take the seeded-Lanczos path and agree with a cold solve's partition.
func TestDecomposeWarmSeededOnStructuralDelta(t *testing.T) {
	ctx, tr := warmTestCtx()
	base := warmBase(t, 1, 42)
	seed, err := DecomposeCtx(ctx, base, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatalf("base decompose: %v", err)
	}
	d := &delta.Delta{
		RemoveNets: []string{base.NetNames[7]},
		AddNets:    []delta.NetChange{{Name: "eco1", Modules: []int{1, base.NumModules() - 2}}},
	}
	mut, reach, err := delta.Apply(base, d)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if reach.Nets != 2 {
		t.Fatalf("reach = %+v", reach)
	}
	warm, info, err := DecomposeWarmCtxPolicy(ctx, mut, ModelPartitioningSpecific, 10, seed, eigenPolicyZero())
	if err != nil {
		t.Fatalf("warm decompose: %v", err)
	}
	if info.Outcome != WarmOutcomeSeeded {
		t.Fatalf("outcome = %q (reason %q, res %g scale %g), want seeded", info.Outcome, info.Reason, info.MaxResidual, info.Scale)
	}
	if tr.Counter("eigen.warmstart.seeded") != 1 {
		t.Fatalf("seeded counter = %d, want 1", tr.Counter("eigen.warmstart.seeded"))
	}
	cold, err := DecomposeCtx(ctx, mut, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatalf("cold decompose: %v", err)
	}
	// Eigenvalues agree to solver tolerance.
	for j, v := range warm.Eigenvalues() {
		if diff := math.Abs(v - cold.Eigenvalues()[j]); diff > 1e-4*(1+math.Abs(v)) {
			t.Fatalf("eigenvalue %d: warm %.12g cold %.12g", j, v, cold.Eigenvalues()[j])
		}
	}
	opts := Options{Method: MELO, K: 2, D: 10}
	pw, err := PartitionWithSpectrum(ctx, mut, warm, opts)
	if err != nil {
		t.Fatalf("warm partition: %v", err)
	}
	pc, err := PartitionWithSpectrum(ctx, mut, cold, opts)
	if err != nil {
		t.Fatalf("cold partition: %v", err)
	}
	if !assignsEqual(pw, pc) {
		t.Fatal("seeded warm partition differs from cold partition")
	}
}

// TestDecomposeWarmRejectsCorruptedSeeds: satellite coverage — a
// corrupted or mismatched seed must be rejected (counted) and fall back
// to a cold solve that still returns the right answer.
func TestDecomposeWarmRejectsCorruptedSeeds(t *testing.T) {
	base := warmBase(t, 0.5, 7)
	ctxPlain, _ := warmTestCtx()
	seed, err := DecomposeCtx(ctxPlain, base, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatalf("base decompose: %v", err)
	}
	cold, err := DecomposeCtx(ctxPlain, base, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatalf("cold decompose: %v", err)
	}

	corrupted := func(mutate func(dec *eigen.Decomposition)) *Spectrum {
		dec := &eigen.Decomposition{Values: linalg.CopyVec(seed.dec.Values), Vectors: seed.dec.Vectors.Clone()}
		mutate(dec)
		return &Spectrum{modules: seed.modules, model: seed.model, g: seed.g, dec: dec}
	}
	smaller := warmBase(t, 0.2, 7)
	smallerSeed, err := DecomposeCtx(ctxPlain, smaller, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatalf("smaller decompose: %v", err)
	}

	cases := []struct {
		name string
		seed *Spectrum
	}{
		{"nan-vectors", corrupted(func(d *eigen.Decomposition) { d.Vectors.Set(11, 2, math.NaN()) })},
		{"rank-deficient", corrupted(func(d *eigen.Decomposition) {
			for i := 0; i < d.Vectors.Rows; i++ {
				d.Vectors.Set(i, 4, d.Vectors.At(i, 3))
			}
		})},
		{"dimension-mismatch", smallerSeed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, tr := warmTestCtx()
			warm, info, err := DecomposeWarmCtxPolicy(ctx, base, ModelPartitioningSpecific, 10, tc.seed, eigenPolicyZero())
			if err != nil {
				t.Fatalf("warm decompose: %v", err)
			}
			if info.Outcome != WarmOutcomeRejected {
				t.Fatalf("outcome = %q (reason %q), want rejected", info.Outcome, info.Reason)
			}
			if tr.Counter("eigen.warmstart.rejected") != 1 {
				t.Fatalf("rejected counter = %d, want 1", tr.Counter("eigen.warmstart.rejected"))
			}
			if info.Reason == "" {
				t.Fatal("rejection carries no reason")
			}
			// The fallback answer is the cold answer, bit-for-bit.
			for j := 0; j < warm.dec.D(); j++ {
				if warm.dec.Values[j] != cold.dec.Values[j] {
					t.Fatalf("fallback eigenvalue %d differs from cold", j)
				}
				for i := 0; i < base.NumModules(); i++ {
					if warm.dec.Vectors.At(i, j) != cold.dec.Vectors.At(i, j) {
						t.Fatalf("fallback vector differs from cold at (%d,%d)", i, j)
					}
				}
			}
		})
	}

	// No seed at all is exactly the cold DecomposeCtx path: outcome
	// "cold", not counted, one "decompose" span and no "decompose.warm"
	// span, and the cold answer bit-for-bit.
	ring := trace.NewRing(64)
	tr := trace.New(ring)
	ctx := trace.WithTracer(context.Background(), tr)
	noSeed, info, err := DecomposeWarmCtxPolicy(ctx, base, ModelPartitioningSpecific, 10, nil, eigenPolicyZero())
	if err != nil {
		t.Fatalf("warm decompose: %v", err)
	}
	if info.Outcome != WarmOutcomeCold || tr.Counter("eigen.warmstart.cold") != 0 {
		t.Fatalf("nil seed outcome = %q, cold counter = %d", info.Outcome, tr.Counter("eigen.warmstart.cold"))
	}
	spans := map[string]int{}
	for _, r := range ring.Snapshot() {
		spans[r.Name]++
	}
	if spans["decompose"] != 1 || spans["decompose.warm"] != 0 {
		t.Fatalf("nil seed spans: decompose %d, decompose.warm %d; want 1, 0", spans["decompose"], spans["decompose.warm"])
	}
	for j := 0; j < cold.dec.D(); j++ {
		if noSeed.dec.Values[j] != cold.dec.Values[j] {
			t.Fatalf("nil seed eigenvalue %d differs from cold", j)
		}
		for i := 0; i < base.NumModules(); i++ {
			if noSeed.dec.Vectors.At(i, j) != cold.dec.Vectors.At(i, j) {
				t.Fatalf("nil seed vector differs from cold at (%d,%d)", i, j)
			}
		}
	}
}

// TestWarmColdSmokeAgreement pins the exact instance and delta sequence
// the CI incremental-smoke job replays over HTTP: prim1 at scale 1 with
// an area delta, a net swap, and a repin. Each delta's warm-started
// partition must match a cold solve of the mutated netlist bit-for-bit.
// If this test needs updating, update .github/workflows/ci.yml's
// incremental-smoke job to match.
func TestWarmColdSmokeAgreement(t *testing.T) {
	ctx, tr := warmTestCtx()
	base := warmBase(t, 1, 1)
	seed, err := DecomposeCtx(ctx, base, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatalf("base decompose: %v", err)
	}
	deltas := []*delta.Delta{
		{SetAreas: []delta.AreaChange{{Module: 0, Area: 3}}},
		{RemoveNets: []string{base.NetNames[0]}, AddNets: []delta.NetChange{{Name: "eco-a", Modules: []int{2, 11}}}},
		{SetPins: []delta.NetChange{{Name: base.NetNames[1], Modules: []int{0, 5, 9}}}},
	}
	opts := Options{Method: MELO, K: 2, D: 10}
	for i, d := range deltas {
		mut, _, err := delta.Apply(base, d)
		if err != nil {
			t.Fatalf("delta %d apply: %v", i, err)
		}
		warm, info, err := DecomposeWarmCtxPolicy(ctx, mut, ModelPartitioningSpecific, 10, seed, eigenPolicyZero())
		if err != nil {
			t.Fatalf("delta %d warm decompose: %v", i, err)
		}
		if info.Outcome != WarmOutcomeAccepted && info.Outcome != WarmOutcomeSeeded {
			t.Fatalf("delta %d outcome = %q (reason %q) — smoke expects a warm hit", i, info.Outcome, info.Reason)
		}
		pw, err := PartitionWithSpectrum(ctx, mut, warm, opts)
		if err != nil {
			t.Fatalf("delta %d warm partition: %v", i, err)
		}
		pc, err := PartitionCtx(context.Background(), mut, opts)
		if err != nil {
			t.Fatalf("delta %d cold partition: %v", i, err)
		}
		if !assignsEqual(pw, pc) {
			t.Fatalf("delta %d: warm partition differs from cold solve", i)
		}
		if NetCut(mut, pw) != NetCut(mut, pc) {
			t.Fatalf("delta %d: warm and cold cuts differ", i)
		}
	}
	if hits := tr.Counter("eigen.warmstart.accepted") + tr.Counter("eigen.warmstart.seeded"); hits != 3 {
		t.Fatalf("warm hits = %d, want 3", hits)
	}
}

func eigenPolicyZero() resilience.EigenPolicy { return resilience.EigenPolicy{} }
