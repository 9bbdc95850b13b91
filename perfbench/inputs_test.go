package main

import (
	"encoding/json"
	"testing"

	spectral "repro"
	"repro/internal/delta"
)

func coldFlatHashes(t *testing.T, seed int64, n int) ([]string, int) {
	t.Helper()
	var hashes []string
	skips := 0
	for i := 0; i < n; i++ {
		c, err := coldFlatCircuit(seed, streamJobs, uint64(i), &skips)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, c.hash)
	}
	return hashes, skips
}

func TestGeneratorDeterministic(t *testing.T) {
	const n = 2 * 9 // two passes over the cold-flat classes
	a, skipsA := coldFlatHashes(t, 7, n)
	b, skipsB := coldFlatHashes(t, 7, n)
	if skipsA != skipsB {
		t.Errorf("skipped seeds differ between identical runs: %d vs %d", skipsA, skipsB)
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("input %d: hash %s, then %s from the same seed", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Errorf("input %d repeats an earlier netlist", i)
		}
		seen[a[i]] = true
	}
	other, _ := coldFlatHashes(t, 8, n)
	for i := range a {
		if a[i] == other[i] {
			t.Errorf("input %d is the same netlist under seeds 7 and 8", i)
		}
	}
}

// A seed the generator rejects is replaced by the next derived seed:
// the caller still gets a connected input, the skip is counted, and a
// second draw skips the same seeds and returns the same netlist.
func TestGeneratorSkipsFailedSeeds(t *testing.T) {
	for i := uint64(0); i < 300; i++ {
		skips := 0
		c, err := coldFlatCircuit(1, streamJobs, i, &skips)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if skips == 0 {
			continue
		}
		again := 0
		c2, err := coldFlatCircuit(1, streamJobs, i, &again)
		if err != nil || again != skips || c2.hash != c.hash {
			t.Fatalf("input %d: second draw skipped %d (first %d), same netlist %v, err %v", i, again, skips, c2 != nil && c2.hash == c.hash, err)
		}
		if !c.h.IsConnected() {
			t.Fatalf("input %d: replacement netlist is disconnected", i)
		}
		return
	}
	t.Fatal("no generator failure among 300 inputs; the test needs one")
}

func TestECODeltasDeterministicAndApplicable(t *testing.T) {
	base, err := spectral.GenerateBenchmarkSeeded("prim2", 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		d1, d2 := ecoDelta(base, 5, i), ecoDelta(base, 5, i)
		j1, _ := json.Marshal(d1)
		j2, _ := json.Marshal(d2)
		if string(j1) != string(j2) {
			t.Fatalf("delta %d differs between identical draws", i)
		}
		mut, _, err := delta.Apply(base, d1)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if mut.NumModules() != base.NumModules() {
			t.Fatalf("delta %d changed the module count", i)
		}
	}
}

func TestSweepOrderCoversGrid(t *testing.T) {
	order := sweepOrder(3)
	if len(order) != len(sweepClasses)*9 {
		t.Fatalf("grid has %d points, want %d", len(order), len(sweepClasses)*9)
	}
	seen := map[sweepJob]bool{}
	for _, j := range order {
		seen[j] = true
	}
	if len(seen) != len(order) {
		t.Errorf("grid repeats points: %d distinct of %d", len(seen), len(order))
	}
	again := sweepOrder(3)
	for i := range order {
		if order[i] != again[i] {
			t.Fatal("sweep order differs for the same seed")
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	h, err := spectral.GenerateBenchmarkSeeded("bm1", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := h.NumModules()
	assign := make([]int, n)
	for i := n / 2; i < n; i++ {
		assign[i] = 1
	}
	cut := spectral.NetCut(h, &spectral.Partitioning{Assign: assign, K: 2})
	if got, err := checkAnswer(h, &jobResult{Assign: assign, K: 2, NetCut: cut}, 2, meloMinFrac); err != nil || got != cut {
		t.Fatalf("valid answer: cut %d, err %v", got, err)
	}
	if _, err := checkAnswer(h, &jobResult{Assign: assign, K: 2, NetCut: cut + 1}, 2, meloMinFrac); err == nil {
		t.Error("a misreported net cut passed")
	}
	lopsided := make([]int, n)
	lopsided[0] = 1
	if _, err := checkAnswer(h, &jobResult{Assign: lopsided, K: 2, NetCut: spectral.NetCut(h, &spectral.Partitioning{Assign: lopsided, K: 2})}, 2, meloMinFrac); err == nil {
		t.Error("an answer outside the balance window passed")
	}
	if _, err := checkAnswer(h, &jobResult{Assign: assign[:n-1], K: 2, NetCut: cut}, 2, meloMinFrac); err == nil {
		t.Error("an incomplete assignment passed")
	}
}
