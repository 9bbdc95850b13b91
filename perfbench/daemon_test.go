package main

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestCachedSweepPhase drives a short closed-loop phase end to end:
// boot, prewarm, two concurrent clients, answer checks, and the
// zero-recompute gate of the timed phase.
func TestCachedSweepPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon and prewarms three n≈3k spectra")
	}
	w := &cachedSweep{}
	parallel.SetLimit(w.limit())
	if _, err := w.prepare(4, 1); err != nil {
		t.Fatal(err)
	}
	d, err := boot(bootOptions{workers: w.clients()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := w.preload(newClient(d)); err != nil {
		t.Fatal(err)
	}
	var next atomic.Int64
	ph := runPhase(w, d, &next, 300*time.Millisecond)
	if len(ph.records) == 0 {
		t.Fatal("no job ran")
	}
	failed, err := checkJobs(w, ph.records)
	if failed != 0 {
		t.Fatalf("%d of %d jobs failed: %v", failed, len(ph.records), err)
	}
	if err := w.checkRun(ph.records, []phaseResult{ph}); err != nil {
		t.Fatal(err)
	}
	for _, r := range ph.records {
		if r.cut <= 0 || r.latency <= 0 {
			t.Errorf("job %d: cut %d, latency %v", r.seq, r.cut, r.latency)
		}
	}
}
