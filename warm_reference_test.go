package spectral

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// referenceWarmDecompose is a frozen copy of the warm-start path as it
// stood before the seeded solve became the resilience ladder's attempt
// 0: its own graph build, its own copy of the ladder's regime gates
// (dense floor 256, want ≤ n/3, connected), a direct seeded Lanczos
// call from seed 1, and a cold DecomposeCtx when the seed is rejected.
func referenceWarmDecompose(t *testing.T, h *Netlist, d int, seed *Spectrum) (*Spectrum, string) {
	t.Helper()
	ctx := context.Background()
	cold := func() (*Spectrum, string) {
		sp, err := DecomposeCtx(ctx, h, ModelPartitioningSpecific, d)
		if err != nil {
			t.Fatalf("reference cold decompose: %v", err)
		}
		return sp, WarmOutcomeRejected
	}
	cm := graph.PartitioningSpecific
	n := h.NumModules()
	want := min(d+1, n)
	if !seed.satisfies(n, cm, want) {
		return cold()
	}
	g, err := graph.FromHypergraph(h, cm)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-6
	ev := eigen.EvaluateWarmSeed(g.Laplacian(), seed.dec, want, tol)
	switch ev.Outcome {
	case eigen.WarmAccepted:
		return &Spectrum{modules: n, model: cm, g: g, dec: ev.Refreshed}, WarmOutcomeAccepted
	case eigen.WarmSeeded:
		if n <= 256 || want > n/3 || len(g.Components()) > 1 {
			return cold()
		}
		dec, err := eigen.LanczosCtx(ctx, g.Laplacian(), want, &eigen.LanczosOptions{
			Tol:           tol,
			Seed:          1,
			InitialVector: ev.Start,
		})
		if err != nil {
			return cold()
		}
		return &Spectrum{modules: n, model: cm, g: g, dec: dec}, WarmOutcomeSeeded
	}
	return cold()
}

// sameSpectrum fails the test unless a and b encode to the same bytes:
// same shape, same eigenvalues and eigenvectors bit for bit.
func sameSpectrum(t *testing.T, label string, a, b *Spectrum) {
	t.Helper()
	ea, err := EncodeSpectrum(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EncodeSpectrum(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("%s: spectra differ", label)
	}
}

// ecoDeltas returns one delta of each kind an ECO flow sends: an area
// edit, a net swap (remove one net, add another), a repin, and a
// batch of random two- and three-pin additions.
func ecoDeltas(h *Netlist, seed int64) map[string]*delta.Delta {
	rng := rand.New(rand.NewSource(seed))
	n := h.NumModules()
	var adds []delta.NetChange
	for i := 0; i < 4; i++ {
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if a == b || b == c || a == c {
			continue
		}
		adds = append(adds, delta.NetChange{Name: fmt.Sprintf("eco-r%d", i), Modules: []int{a, b, c}})
	}
	return map[string]*delta.Delta{
		"area":    {SetAreas: []delta.AreaChange{{Module: 1, Area: 2}}},
		"netswap": {RemoveNets: []string{h.NetNames[3]}, AddNets: []delta.NetChange{{Name: "eco-s", Modules: []int{2, n - 3}}}},
		"repin":   {SetPins: []delta.NetChange{{Name: h.NetNames[5], Modules: []int{0, 4, n - 1}}}},
		"addnet":  {AddNets: adds},
	}
}

// TestWarmDecomposeMatchesReference pins the fold of the warm start
// into the ladder: over accepted, seeded, residual-rejected,
// incompatible-seed, dense-regime and disconnected cases, the warm
// path returns the frozen reference's outcome and its spectrum bit for
// bit.
func TestWarmDecomposeMatchesReference(t *testing.T) {
	const d = 10
	type tc struct {
		label string
		h     *Netlist
		seed  *Spectrum
	}
	decomposeOf := func(h *Netlist, d int) *Spectrum {
		sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, d)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	var cases []tc
	for _, inst := range []struct {
		scale float64
		gseed int64
	}{{1, 1}, {0.5, 1}, {0.5, 42}, {0.2, 1}, {0.2, 42}} {
		base := warmBase(t, inst.scale, inst.gseed)
		seed := decomposeOf(base, d)
		for name, dl := range ecoDeltas(base, inst.gseed) {
			mut, _, err := delta.Apply(base, dl)
			if err != nil {
				t.Fatalf("apply %s: %v", name, err)
			}
			cases = append(cases, tc{fmt.Sprintf("prim1/%g/%d/%s", inst.scale, inst.gseed, name), mut, seed})
		}
	}
	// Each seed vector an even mix of a lowest and a highest eigenvector
	// of the netlist's own Laplacian: orthonormal, but its residual is
	// half the spectral spread, so the residual check rejects it.
	mid := warmBase(t, 0.5, 1)
	full, err := eigen.SymEig(eigen.Densify(decomposeOf(mid, d).g.Laplacian()))
	if err != nil {
		t.Fatal(err)
	}
	n := mid.NumModules()
	mixed := linalg.NewDense(n, d+1)
	for j := 0; j <= d; j++ {
		for i := 0; i < n; i++ {
			mixed.Set(i, j, (full.Vectors.At(i, j)+full.Vectors.At(i, n-1-j))/math.Sqrt2)
		}
	}
	residualSeed := &Spectrum{modules: n, model: graph.PartitioningSpecific, dec: &eigen.Decomposition{Values: make([]float64, d+1), Vectors: mixed}}
	cases = append(cases, tc{"residual-rejected", mid, residualSeed})
	// Too few pairs and the wrong module count: incompatible seeds.
	cases = append(cases, tc{"incompatible-pairs", mid, decomposeOf(mid, 4)})
	cases = append(cases, tc{"incompatible-size", mid, decomposeOf(warmBase(t, 0.2, 1), d)})
	// Two 150-module chains: above the dense floor but disconnected,
	// with an area edit (accepted) and an in-component repin.
	disc := disconnectedNetlist(t, 150, 150)
	discSeed := decomposeOf(disc, d)
	for name, dl := range map[string]*delta.Delta{
		"area":  {SetAreas: []delta.AreaChange{{Module: 7, Area: 3}}},
		"repin": {SetPins: []delta.NetChange{{Name: disc.NetNames[10], Modules: []int{10, 12}}}},
	} {
		mut, _, err := delta.Apply(disc, dl)
		if err != nil {
			t.Fatalf("apply disconnected %s: %v", name, err)
		}
		cases = append(cases, tc{"disconnected/" + name, mut, discSeed})
	}

	seen := map[string]bool{}
	for _, c := range cases {
		want, wantOutcome := referenceWarmDecompose(t, c.h, d, c.seed)
		got, info, err := DecomposeWarmCtxPolicy(context.Background(), c.h, ModelPartitioningSpecific, d, c.seed, resilience.EigenPolicy{})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if info.Outcome != wantOutcome {
			t.Fatalf("%s: outcome %q (%s), reference %q", c.label, info.Outcome, info.Reason, wantOutcome)
		}
		sameSpectrum(t, c.label, got, want)
		seen[info.Outcome] = true
		if c.h.NumModules() <= 256 && info.Outcome == WarmOutcomeRejected {
			seen["dense-rejected"] = true
		}
		if c.label == "residual-rejected" && !strings.HasPrefix(info.Reason, "residual") {
			t.Fatalf("%s: reason %q, want a residual rejection", c.label, info.Reason)
		}
		if c.label == "disconnected/repin" && info.Outcome != WarmOutcomeRejected {
			t.Fatalf("%s: outcome %q, want rejected", c.label, info.Outcome)
		}
	}
	for _, o := range []string{WarmOutcomeAccepted, WarmOutcomeSeeded, WarmOutcomeRejected, "dense-rejected"} {
		if !seen[o] {
			t.Errorf("corpus never produced outcome %q", o)
		}
	}
}

// A seed plus a fault on the ladder's first attempt: the seeded attempt
// 0 fails, the outcome is rejected, attempt 1 runs exactly as the cold
// solve does, and the answer is DecomposeCtx's bit for bit.
func TestWarmSeededAttemptFaultFallsBackCold(t *testing.T) {
	base := warmBase(t, 1, 42)
	seed, err := DecomposeCtx(context.Background(), base, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	mut, _, err := delta.Apply(base, ecoDeltas(base, 42)["netswap"])
	if err != nil {
		t.Fatal(err)
	}
	plan := &resilience.FaultPlan{FailAttempts: []int{1}}
	got, info, err := DecomposeWarmCtxPolicy(context.Background(), mut, ModelPartitioningSpecific, 10, seed, resilience.EigenPolicy{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if info.Outcome != WarmOutcomeRejected || info.Reason == "" {
		t.Fatalf("outcome %q (reason %q), want rejected with a reason", info.Outcome, info.Reason)
	}
	if plan.Attempts() != 2 {
		t.Fatalf("plan saw %d attempts, want 2 (seeded attempt 0, cold attempt 1)", plan.Attempts())
	}
	cold, err := DecomposeCtx(context.Background(), mut, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameSpectrum(t, "faulted seed", got, cold)
}

// A seeded solve is an ordinary ladder solve: one eigen.solve span on
// rung lanczos after one attempt, and one resilience.rung.lanczos count.
func TestWarmSeededSolveIsTraced(t *testing.T) {
	base := warmBase(t, 1, 42)
	seed, err := DecomposeCtx(context.Background(), base, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	mut, _, err := delta.Apply(base, ecoDeltas(base, 42)["netswap"])
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(256)
	tr := trace.New(ring)
	ctx := trace.WithTracer(context.Background(), tr)
	_, info, err := DecomposeWarmCtxPolicy(ctx, mut, ModelPartitioningSpecific, 10, seed, resilience.EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Outcome != WarmOutcomeSeeded {
		t.Fatalf("outcome %q (%s), want seeded", info.Outcome, info.Reason)
	}
	var solves []trace.SpanRecord
	for _, r := range ring.Snapshot() {
		if r.Name == "eigen.solve" {
			solves = append(solves, r)
		}
	}
	if len(solves) != 1 {
		t.Fatalf("%d eigen.solve spans, want 1", len(solves))
	}
	if rung, attempts := attr(solves[0], "rung"), attr(solves[0], "attempts"); rung != "lanczos" || attempts != "1" {
		t.Fatalf("eigen.solve rung %q attempts %q, want lanczos 1", rung, attempts)
	}
	if c := tr.Counter("resilience.rung.lanczos"); c != 1 {
		t.Fatalf("resilience.rung.lanczos = %d, want 1", c)
	}
}
