package spectral

import (
	"context"
	"testing"

	"repro/internal/delta"
	"repro/internal/partition"
)

func stabilityNetlist(t *testing.T) *Netlist {
	t.Helper()
	h, err := GenerateBenchmarkSeeded("prim1", 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPartitionStabilityIdentity(t *testing.T) {
	h := stabilityNetlist(t)
	p, err := PartitionCtx(context.Background(), h, Options{K: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := PartitionStability(h, h, p, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.MovedModules != 0 || s.MovedFrac != 0 {
		t.Fatalf("identical partitions moved %d modules", s.MovedModules)
	}
	if s.BaseCut != s.NewCut || s.CutDelta != 0 {
		t.Fatalf("identical partitions have cut delta %d", s.CutDelta)
	}
	if s.BaseCut != NetCut(h, p) {
		t.Fatalf("BaseCut %d != NetCut %d", s.BaseCut, NetCut(h, p))
	}
}

// TestPartitionStabilityLabelInvariance: relabeling clusters is not
// movement — the alignment must absorb any permutation of labels.
func TestPartitionStabilityLabelInvariance(t *testing.T) {
	h := stabilityNetlist(t)
	p, err := PartitionCtx(context.Background(), h, Options{K: 4, D: 6})
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{2, 3, 1, 0}
	relabeled := make([]int, len(p.Assign))
	for i, a := range p.Assign {
		relabeled[i] = perm[a]
	}
	q := partition.MustNew(relabeled, 4)
	s, err := PartitionStability(h, h, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if s.MovedModules != 0 {
		t.Fatalf("pure relabeling counted as %d moves", s.MovedModules)
	}
}

func TestPartitionStabilityCountsMoves(t *testing.T) {
	h := stabilityNetlist(t)
	p, err := PartitionCtx(context.Background(), h, Options{K: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	moved := append([]int(nil), p.Assign...)
	// Move three modules across and flip all labels: alignment must see
	// exactly 3 moves.
	for _, m := range []int{0, 5, 9} {
		moved[m] = 1 - moved[m]
	}
	for i := range moved {
		moved[i] = 1 - moved[i]
	}
	q := partition.MustNew(moved, 2)
	s, err := PartitionStability(h, h, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if s.MovedModules != 3 {
		t.Fatalf("moved = %d, want 3", s.MovedModules)
	}
	if want := 3.0 / float64(len(moved)); s.MovedFrac != want {
		t.Fatalf("movedFrac = %v, want %v", s.MovedFrac, want)
	}
}

// TestPartitionStabilityAcrossDelta: the intended use — base partition
// vs the partition of a delta netlist; cuts are computed on the
// respective netlists.
func TestPartitionStabilityAcrossDelta(t *testing.T) {
	base := stabilityNetlist(t)
	mut, _, err := delta.Apply(base, &delta.Delta{
		AddNets: []delta.NetChange{{Name: "eco", Modules: []int{0, base.NumModules() - 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, D: 4}
	pb, err := PartitionCtx(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := PartitionCtx(context.Background(), mut, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := PartitionStability(base, mut, pb, pm)
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseCut != NetCut(base, pb) || s.NewCut != NetCut(mut, pm) {
		t.Fatalf("cuts not recomputed on the right netlists: %+v", s)
	}
	if s.CutDelta != s.NewCut-s.BaseCut {
		t.Fatalf("cut delta inconsistent: %+v", s)
	}
	if s.MovedModules < 0 || s.MovedModules > base.NumModules() {
		t.Fatalf("implausible moved count %d", s.MovedModules)
	}
}

func TestPartitionStabilityErrors(t *testing.T) {
	h := stabilityNetlist(t)
	p, err := PartitionCtx(context.Background(), h, Options{K: 2, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionStability(nil, h, p, p); err == nil {
		t.Fatal("nil netlist accepted")
	}
	if _, err := PartitionStability(h, h, p, nil); err == nil {
		t.Fatal("nil partition accepted")
	}
	short := partition.MustNew([]int{0, 1}, 2)
	if _, err := PartitionStability(h, h, p, short); err == nil {
		t.Fatal("mismatched module counts accepted")
	}
}

func TestMaxAssignmentExact(t *testing.T) {
	// Known 3×3 assignment: optimum picks 9+7+8 = 24 (diag would be 18).
	w := [][]int{
		{5, 9, 4},
		{7, 6, 5},
		{1, 2, 8},
	}
	if got := maxAssignment(w); got != 24 {
		t.Fatalf("maxAssignment = %d, want 24", got)
	}
}
