package jobs

import (
	"context"
	"sync"
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

// fakePeer is a shard peer that holds one encoded spectrum and counts
// the traffic it sees.
type fakePeer struct {
	data []byte

	mu              sync.Mutex
	fetches, offers int
}

func (f *fakePeer) Fetch(ctx context.Context, hash, model string, pairs int) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetches++
	return f.data, true, nil
}

func (f *fakePeer) Offer(hash, model string, pairs int, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offers++
}

func (f *fakePeer) counts() (fetches, offers int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fetches, f.offers
}

// A spectrum fetched from a shard peer is written through to the store
// at fetch time, as the peer's bytes, so a fresh pool on the same store
// serves it with no eigensolve and no peer fetch.
func TestPeerHitWritesThroughToStore(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()
	h := testNetlist(t)
	req := Request{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.MELO}}
	spec := req.Opts.SpectrumSpec()
	sp, err := spectral.DecomposeCtx(context.Background(), h, spec.Model, spec.D)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spectral.EncodeSpectrum(sp)
	if err != nil {
		t.Fatal(err)
	}
	peer := &fakePeer{data: data}

	st1 := openDisk(t, dir)
	p1 := NewPool(Config{Workers: 1, QueueDepth: 4, Store: st1})
	p1.Cache().SetRemote(peer)
	p1.Start()
	want := runAll(t, p1, []Request{req})
	s1 := p1.Stats()
	if s1.Computed != 0 || s1.Cache.RemoteHits != 1 {
		t.Fatalf("first pool: computed %d, remote hits %d; want the peer to serve it", s1.Computed, s1.Cache.RemoteHits)
	}
	if fetches, offers := peer.counts(); fetches != 1 || offers != 0 {
		t.Fatalf("peer saw %d fetches and %d offers, want 1 and 0", fetches, offers)
	}
	if s1.Cache.Evictions != 0 || st1.Len() != 1 {
		t.Fatalf("store holds %d entries after %d evictions; want the peer hit written at fetch time", st1.Len(), s1.Cache.Evictions)
	}
	if err := p1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDisk(t, dir)
	defer st2.Close()
	p2 := NewPool(Config{Workers: 1, QueueDepth: 4, Store: st2})
	p2.Cache().SetRemote(peer)
	p2.Start()
	defer p2.Shutdown(context.Background())
	got := runAll(t, p2, []Request{req})
	s2 := p2.Stats()
	if s2.Computed != 0 || s2.Cache.StoreHits != 1 {
		t.Errorf("fresh pool: computed %d, store hits %d; want the store to serve it", s2.Computed, s2.Cache.StoreHits)
	}
	if fetches, _ := peer.counts(); fetches != 1 {
		t.Errorf("fresh pool fetched from the peer (%d fetches total), want the store to serve it", fetches)
	}
	assertSameResults(t, want, got)
}
