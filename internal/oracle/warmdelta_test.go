package oracle

import (
	"context"
	"testing"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/resilience"
)

// TestWarmDeltaMatchesColdOnCorpus sweeps the differential corpus with
// a fixed structural+area ECO delta per case: the warm-started solve of
// every mutated netlist must reproduce a cold solve's partition
// bit-for-bit, and the reported cut must equal the cut recomputed from
// the assignment. The corpus instances are far below the seeded-regime
// floor (n ≤ MaxModules < 256, the ladder's dense-direct floor), so
// this pins the fallthrough side of the warm path: on problems too
// small to seed, warm starting must degrade to exactly the cold solve,
// not an approximation of it.
func TestWarmDeltaMatchesColdOnCorpus(t *testing.T) {
	cases := Corpus(1)
	if len(cases) != 51 {
		t.Fatalf("corpus has %d cases, want 51 — update the warm≡cold sweep note", len(cases))
	}
	ctx := context.Background()
	const d = 3
	opts := spectral.Options{Method: spectral.MELO, K: 2, D: d}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			base := c.H
			n := base.NumModules()
			ecoDelta := &delta.Delta{
				RemoveNets: []string{base.NetNames[0]},
				AddNets:    []delta.NetChange{{Name: "eco", Modules: []int{0, n - 1}}},
				SetAreas:   []delta.AreaChange{{Module: 0, Area: 2}},
			}
			mut, reach, err := delta.Apply(base, ecoDelta)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			if reach.Nets < 2 {
				t.Fatalf("reach = %+v, want >= 2 touched nets", reach)
			}
			seed, err := spectral.DecomposeCtx(ctx, base, spectral.ModelPartitioningSpecific, d)
			if err != nil {
				t.Fatalf("base decompose: %v", err)
			}
			warm, info, err := spectral.DecomposeWarmCtxPolicy(ctx, mut, spectral.ModelPartitioningSpecific, d, seed, resilience.EigenPolicy{})
			if err != nil {
				t.Fatalf("warm decompose: %v", err)
			}
			pw, err := spectral.PartitionWithSpectrum(ctx, mut, warm, opts)
			if err != nil {
				t.Fatalf("warm partition (outcome %q): %v", info.Outcome, err)
			}
			pc, err := spectral.PartitionCtx(ctx, mut, opts)
			if err != nil {
				t.Fatalf("cold partition: %v", err)
			}
			if len(pw.Assign) != n || len(pc.Assign) != n {
				t.Fatalf("assign lengths %d/%d, want %d", len(pw.Assign), len(pc.Assign), n)
			}
			for i := range pw.Assign {
				if pw.Assign[i] != pc.Assign[i] {
					t.Fatalf("warm (outcome %q) and cold partitions differ at module %d", info.Outcome, i)
				}
			}
			if wc, cc := spectral.NetCut(mut, pw), spectral.NetCut(mut, pc); wc != cc {
				t.Fatalf("warm cut %d != cold cut %d", wc, cc)
			}
		})
	}
}
