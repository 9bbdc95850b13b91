package speccache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hypergraph"
)

func mustNetlist(t *testing.T, nets ...[]int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	max := 0
	for _, net := range nets {
		for _, m := range net {
			if m > max {
				max = m
			}
		}
	}
	b.AddModules(max + 1)
	for i, net := range nets {
		if err := b.AddNet(fmt.Sprintf("n%d", i), net...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestFingerprintCanonical(t *testing.T) {
	a := mustNetlist(t, []int{0, 1, 2}, []int{2, 3})
	b := mustNetlist(t, []int{2, 3}, []int{0, 1, 2}) // net order differs
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint depends on net declaration order")
	}
	c := mustNetlist(t, []int{0, 1, 2}, []int{1, 3})
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("distinct structures share a fingerprint")
	}
}

func TestFingerprintAreas(t *testing.T) {
	a := mustNetlist(t, []int{0, 1}, []int{1, 2})
	b := mustNetlist(t, []int{0, 1}, []int{1, 2})
	if err := b.SetAreas([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("areas do not affect the fingerprint")
	}
}

func TestGetOrComputeHitMissAndCapacity(t *testing.T) {
	c := New(4, nil)
	key := Key{Hash: "sha256:x", Model: "partitioning-specific"}
	var computes atomic.Int64
	compute := func(pairs int) func(context.Context, int) (Entry, error) {
		return func(context.Context, int) (Entry, error) {
			computes.Add(1)
			return Entry{Value: pairs, Pairs: pairs}, nil
		}
	}
	if _, hit, err := c.GetOrCompute(context.Background(), key, 11, compute(11)); err != nil || hit {
		t.Fatalf("first request: hit=%v err=%v", hit, err)
	}
	// Smaller request, same key: must hit without recompute.
	e, hit, err := c.GetOrCompute(context.Background(), key, 2, compute(2))
	if err != nil || !hit || e.Pairs != 11 {
		t.Fatalf("smaller request: hit=%v pairs=%d err=%v", hit, e.Pairs, err)
	}
	// Larger request: recompute and replace.
	e, hit, err = c.GetOrCompute(context.Background(), key, 20, compute(20))
	if err != nil || hit || e.Pairs != 20 {
		t.Fatalf("larger request: hit=%v pairs=%d err=%v", hit, e.Pairs, err)
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("computes = %d, want 2", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 entry", st)
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	c := New(4, nil)
	key := Key{Hash: "sha256:y", Model: "frankle"}
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func(context.Context, int) (Entry, error) {
		computes.Add(1)
		<-release
		return Entry{Value: "dec", Pairs: 5}, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.GetOrCompute(context.Background(), key, 5, compute)
		}(i)
	}
	// Let the goroutines pile up on the single in-flight compute.
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1 (singleflight)", got)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New(4, nil)
	key := Key{Hash: "sha256:z", Model: "standard"}
	var computes atomic.Int64
	fail := func(context.Context, int) (Entry, error) {
		computes.Add(1)
		return Entry{}, fmt.Errorf("solver exploded")
	}
	if _, _, err := c.GetOrCompute(context.Background(), key, 3, fail); err == nil {
		t.Fatal("want error")
	}
	ok := func(context.Context, int) (Entry, error) {
		computes.Add(1)
		return Entry{Pairs: 3}, nil
	}
	if _, hit, err := c.GetOrCompute(context.Background(), key, 3, ok); err != nil || hit {
		t.Fatalf("after failure: hit=%v err=%v", hit, err)
	}
	if got := computes.Load(); got != 2 {
		t.Errorf("computes = %d, want 2 (errors are not cached)", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, nil)
	put := func(hash string) {
		_, _, err := c.GetOrCompute(context.Background(), Key{Hash: hash}, 1,
			func(context.Context, int) (Entry, error) { return Entry{Pairs: 1}, nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("a") // refresh a: b becomes LRU
	put("c") // evicts b
	if _, hit, _ := c.GetOrCompute(context.Background(), Key{Hash: "a"}, 1,
		func(context.Context, int) (Entry, error) { return Entry{Pairs: 1}, nil }); !hit {
		t.Error("a was evicted, want b")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestWaiterCancellation(t *testing.T) {
	c := New(2, nil)
	key := Key{Hash: "sha256:w"}
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrCompute(context.Background(), key, 1, func(context.Context, int) (Entry, error) {
			close(started)
			<-release
			return Entry{Pairs: 1}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, key, 1, func(context.Context, int) (Entry, error) {
		t.Error("second caller must not compute")
		return Entry{}, nil
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestWinnerCancelledMidFlight pins the singleflight contract the jobs
// pool relies on when the job that won the compute is cancelled while
// followers wait on it. Two computes exist in practice:
//
//   - a cooperative compute aborts with the winner's ctx error, which
//     is shared with every follower and never cached (a later request
//     recomputes), and
//   - the pool's detached compute (see jobs.Pool.fetch) ignores the
//     winner's cancellation, so the cancelled winner still delivers
//     the decomposition to its followers and to the cache.
func TestWinnerCancelledMidFlight(t *testing.T) {
	t.Run("cooperative-compute-shares-the-cancellation", func(t *testing.T) {
		c := New(4, nil)
		key := Key{Hash: "sha256:winner-coop", Model: "standard"}
		winnerCtx, cancelWinner := context.WithCancel(context.Background())
		inCompute := make(chan struct{})
		winnerCompute := func(cctx context.Context, _ int) (Entry, error) {
			close(inCompute)
			<-cctx.Done() // the winning job's cancellation reaches the compute
			return Entry{}, cctx.Err()
		}

		winnerErr := make(chan error, 1)
		go func() {
			_, _, err := c.GetOrCompute(winnerCtx, key, 3, winnerCompute)
			winnerErr <- err
		}()
		<-inCompute

		// Followers pile on. A follower that joins the cohort shares the
		// winner's error; one that arrives after the cohort dissolved
		// becomes a new winner and computes for itself — both are legal,
		// neither may hang or observe a cached error.
		var computes atomic.Int64
		followerCompute := func(context.Context, int) (Entry, error) {
			computes.Add(1)
			return Entry{Value: "fresh", Pairs: 3}, nil
		}
		const followers = 4
		errs := make([]error, followers)
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, errs[i] = c.GetOrCompute(context.Background(), key, 3, followerCompute)
			}(i)
		}
		time.Sleep(5 * time.Millisecond) // let followers reach the in-flight wait
		cancelWinner()
		wg.Wait()
		if err := <-winnerErr; err != context.Canceled {
			t.Errorf("winner err = %v, want context.Canceled", err)
		}
		for i, err := range errs {
			if err != nil && err != context.Canceled {
				t.Errorf("follower %d: err = %v, want nil or context.Canceled", i, err)
			}
		}
		// The cancellation must not be cached: the next request computes
		// (or hits a follower's fresh entry), never sees the stale error.
		entry, _, err := c.GetOrCompute(context.Background(), key, 3, followerCompute)
		if err != nil || entry.Pairs != 3 {
			t.Errorf("post-cancel request: entry=%+v err=%v", entry, err)
		}
	})

	t.Run("detached-compute-still-feeds-followers", func(t *testing.T) {
		c := New(4, nil)
		key := Key{Hash: "sha256:winner-detached", Model: "standard"}
		winnerCtx, cancelWinner := context.WithCancel(context.Background())
		inCompute := make(chan struct{})
		release := make(chan struct{})
		var computes atomic.Int64
		// The pool's compute: detached from the job's cancellation, it
		// runs to completion no matter what happens to the winner.
		detached := func(context.Context, int) (Entry, error) {
			computes.Add(1)
			close(inCompute)
			<-release
			return Entry{Value: "spectrum", Pairs: 5}, nil
		}

		type res struct {
			entry Entry
			err   error
		}
		winnerRes := make(chan res, 1)
		go func() {
			entry, _, err := c.GetOrCompute(winnerCtx, key, 5, detached)
			winnerRes <- res{entry, err}
		}()
		<-inCompute

		const followers = 4
		results := make([]res, followers)
		var wg sync.WaitGroup
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				entry, _, err := c.GetOrCompute(context.Background(), key, 5, detached)
				results[i] = res{entry, err}
			}(i)
		}

		cancelWinner() // the winning job dies mid-flight...
		close(release) // ...and the detached compute finishes anyway
		wg.Wait()
		w := <-winnerRes
		if w.err != nil || w.entry.Pairs != 5 {
			t.Errorf("winner: entry=%+v err=%v, want the computed entry", w.entry, w.err)
		}
		for i, r := range results {
			if r.err != nil || r.entry.Pairs != 5 {
				t.Errorf("follower %d: entry=%+v err=%v", i, r.entry, r.err)
			}
		}
		if got := computes.Load(); got != 1 {
			t.Errorf("computes = %d, want 1 (singleflight held through the cancel)", got)
		}
		// And the cancelled winner's work is cached for the future.
		if _, hit, err := c.GetOrCompute(context.Background(), key, 5, detached); !hit || err != nil {
			t.Errorf("post-cancel lookup: hit=%v err=%v, want a cache hit", hit, err)
		}
	})
}

// TestPrefixReuseEdgeCases drives GetOrCompute through the boundary
// sizes of the prefix-reuse rule (a cached entry serves any request for
// at most Entry.Pairs eigenpairs): pairs = 0, equality, one-past, and a
// full-spectrum (pairs = n) entry serving every smaller prefix.
func TestPrefixReuseEdgeCases(t *testing.T) {
	const n = 12 // stands in for "full spectrum" capacity
	key := Key{Hash: "sha256:prefix", Model: "partitioning-specific"}
	cases := []struct {
		name string
		// sequence of (requested pairs, computed capacity); computed
		// capacity is what the fake eigensolve delivers on a miss.
		steps []struct {
			request, deliver int
			wantHit          bool
		}
	}{
		{
			name: "pairs=0 request always hits once anything is cached",
			steps: []struct {
				request, deliver int
				wantHit          bool
			}{
				{0, 1, false}, // miss: empty cache; compute delivers 1
				{0, 0, true},  // 0 <= 1: served from cache
			},
		},
		{
			name: "equal capacity hits, one past recomputes",
			steps: []struct {
				request, deliver int
				wantHit          bool
			}{
				{4, 4, false},
				{4, 0, true},  // request == capacity
				{5, 5, false}, // capacity+1: recompute, capacity grows
				{4, 0, true},  // old prefix still served
				{5, 0, true},
			},
		},
		{
			name: "full-spectrum entry serves every prefix",
			steps: []struct {
				request, deliver int
				wantHit          bool
			}{
				{n, n, false},
				{0, 0, true},
				{1, 0, true},
				{n - 1, 0, true},
				{n, 0, true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(4, nil)
			for si, step := range tc.steps {
				deliver := step.deliver
				entry, hit, err := c.GetOrCompute(context.Background(), key, step.request,
					func(context.Context, int) (Entry, error) {
						return Entry{Value: si, Pairs: deliver}, nil
					})
				if err != nil {
					t.Fatalf("step %d: %v", si, err)
				}
				if hit != step.wantHit {
					t.Fatalf("step %d: request %d: hit = %v, want %v", si, step.request, hit, step.wantHit)
				}
				if entry.Pairs < step.request {
					t.Fatalf("step %d: served %d pairs for a request of %d", si, entry.Pairs, step.request)
				}
			}
		})
	}
}

// TestCapacityNeverShrinks: a smaller recompute for an existing key must
// not shrink the stored capacity (store keeps the larger entry).
func TestCapacityNeverShrinks(t *testing.T) {
	c := New(4, nil)
	key := Key{Hash: "sha256:grow", Model: "m"}
	mustCompute := func(request, deliver int) {
		t.Helper()
		if _, _, err := c.GetOrCompute(context.Background(), key, request,
			func(context.Context, int) (Entry, error) { return Entry{Pairs: deliver}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mustCompute(8, 8)
	// A fresh key forces the next call through compute even though the
	// cache could serve it; simulate by deleting nothing — request less
	// than capacity just hits. So grow-then-probe: request 8 hits.
	entry, hit, err := c.GetOrCompute(context.Background(), key, 3,
		func(context.Context, int) (Entry, error) {
			t.Fatal("compute ran despite sufficient cached capacity")
			return Entry{}, nil
		})
	if err != nil || !hit || entry.Pairs != 8 {
		t.Fatalf("hit=%v pairs=%d err=%v, want hit with capacity 8", hit, entry.Pairs, err)
	}
}

// arrivalCtx reports when GetOrCompute first selects on it, which a
// caller only does once it has joined an in-flight compute and raised
// that call's want.
type arrivalCtx struct {
	context.Context
	once    sync.Once
	arrived chan struct{}
}

func (a *arrivalCtx) Done() <-chan struct{} {
	a.once.Do(func() { close(a.arrived) })
	return a.Context.Done()
}

// TestUndersizedComputeFoldsWaiters: waiters with mixed pair counts
// pile onto one compute started for a smaller request. When it
// finishes, exactly one follow-up compute runs, asked for the largest
// waiter's pair count, and every waiter gets an entry covering its own
// request.
func TestUndersizedComputeFoldsWaiters(t *testing.T) {
	c := New(4, nil)
	key := Key{Hash: "sha256:fold", Model: "partitioning-specific"}
	inCompute := make(chan struct{})
	release := make(chan struct{})
	winnerDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), key, 3, func(_ context.Context, pairs int) (Entry, error) {
			close(inCompute)
			<-release
			return Entry{Value: "small", Pairs: pairs}, nil
		})
		winnerDone <- err
	}()
	<-inCompute

	var mu sync.Mutex
	var asked []int
	followUp := func(_ context.Context, pairs int) (Entry, error) {
		mu.Lock()
		asked = append(asked, pairs)
		mu.Unlock()
		return Entry{Value: "large", Pairs: pairs}, nil
	}
	requests := []int{5, 2, 11, 3, 7}
	entries := make([]Entry, len(requests))
	errs := make([]error, len(requests))
	var wg sync.WaitGroup
	for i, pairs := range requests {
		ctx := &arrivalCtx{Context: context.Background(), arrived: make(chan struct{})}
		wg.Add(1)
		go func() {
			defer wg.Done()
			entries[i], _, errs[i] = c.GetOrCompute(ctx, key, pairs, followUp)
		}()
		<-ctx.arrived // joined the in-flight call before the next arrives
	}
	close(release)
	wg.Wait()
	if err := <-winnerDone; err != nil {
		t.Fatalf("winner: %v", err)
	}
	for i, pairs := range requests {
		if errs[i] != nil || entries[i].Pairs < pairs {
			t.Errorf("waiter %d (pairs %d): entry=%+v err=%v", i, pairs, entries[i], errs[i])
		}
	}
	if len(asked) != 1 || asked[0] != 11 {
		t.Errorf("follow-up computes asked for %v, want exactly one for 11 pairs", asked)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (the undersized compute and one follow-up)", st.Misses)
	}
}
