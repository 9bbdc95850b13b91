package jobs

import (
	"context"
	"testing"

	spectral "repro"
	"repro/internal/specstore"
)

func openDisk(t *testing.T, dir string) *specstore.Disk {
	t.Helper()
	st, err := specstore.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// A pool restarted against a populated disk store must serve every
// spectrum from disk: zero eigensolves, bit-identical answers. This is
// the "warm restart with zero recomputation" guarantee end to end.
func TestWarmRestartZeroRecompute(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()
	h := testNetlist(t)
	reqs := equivalenceRequests(h)

	st1 := openDisk(t, dir)
	p1 := NewPool(Config{Workers: 1, QueueDepth: 16, Store: st1})
	p1.Start()
	want := runAll(t, p1, reqs)
	cold := p1.Stats()
	if cold.Computed == 0 {
		t.Fatal("cold pool computed nothing; test proves nothing")
	}
	if err := p1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDisk(t, dir)
	defer st2.Close()
	if st2.Len() == 0 {
		t.Fatal("store is empty after reboot; write-through persist did not happen")
	}
	p2 := NewPool(Config{Workers: 1, QueueDepth: 16, Store: st2})
	p2.Start()
	defer p2.Shutdown(context.Background())
	got := runAll(t, p2, reqs)
	assertSameResults(t, want, got)

	warm := p2.Stats()
	if warm.Computed != 0 {
		t.Errorf("warm pool solved %d eigendecompositions, want 0", warm.Computed)
	}
	if warm.Cache.StoreHits == 0 {
		t.Error("warm pool never hit the persistent store")
	}
}

// When the LRU bound forces an eviction, the evicted decomposition is
// repopulated on the next request from the store it was written through
// to when it was computed — no recompute.
func TestEvictionSpillsToStoreAndRepopulates(t *testing.T) {
	defer leakCheck(t)()
	st := openDisk(t, t.TempDir())
	defer st.Close()
	// Cache of one entry: the second netlist's decomposition evicts the
	// first.
	p := NewPool(Config{Workers: 1, QueueDepth: 8, CacheEntries: 1, Store: st})
	p.Start()
	defer p.Shutdown(context.Background())

	hA := testNetlist(t)
	hB, err := spectral.GenerateBenchmark("prim1", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	req := func(h *spectral.Netlist) Request {
		return Request{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.MELO}}
	}
	jA, err := p.Submit(req(hA))
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, jA)
	jB, err := p.Submit(req(hB))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jB)
	if ev := p.Cache().Stats().Evictions; ev == 0 {
		t.Fatal("no eviction; cache bound not exercised")
	}

	computed := p.Stats().Computed
	jA2, err := p.Submit(req(hA))
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, jA2)
	st2 := p.Stats()
	if st2.Computed != computed {
		t.Errorf("re-request recomputed (computed %d -> %d), want store repopulation", computed, st2.Computed)
	}
	if st2.Cache.StoreHits == 0 {
		t.Error("store hits = 0, want the evicted spectrum served from disk")
	}
	assertSameResults(t, []*Result{want}, []*Result{got})
}
