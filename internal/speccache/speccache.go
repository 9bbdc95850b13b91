// Package speccache is the content-addressed eigendecomposition cache
// behind the spectrald daemon: netlists are identified by a canonical
// hash, and decompositions are cached per (hash, model) with a recorded
// eigenvector capacity, so a request needing d eigenvectors is served
// by any cached decomposition of the same netlist and model with
// capacity >= d. A d-sweep or a method comparison (MELO vs SB vs SFC vs
// HL all share the partitioning-specific model) pays for one eigensolve.
//
// The cache is a strict LRU over entries with singleflight computation:
// concurrent requests for the same key share one compute instead of
// racing duplicate eigensolves (a request needing more eigenvectors than
// the in-flight compute produces gets one follow-up sized to the largest
// waiter), and a request that needs more eigenvectors than a cached
// entry holds recomputes and replaces it (capacities only grow).
//
// The LRU is the top rung of the daemon's spectrum tier ladder, and the
// cache owns the whole ladder (ladder.go): a miss walks the persistent
// store (internal/specstore), then the shard peer owning the key, then
// a caller-supplied solve, all inside the singleflight. Everything that
// enters the LRU from a peer or a solve is written through to the store
// right then, so an eviction just drops the entry; the only other
// writer is a peer's offer (Adopt).
package speccache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hypergraph"
	"repro/internal/specstore"
	"repro/internal/trace"
)

// canonicalizations counts full canonical-form hash computations (cache
// misses of the per-netlist memo) — observable via Canonicalizations so
// tests can assert the hot submit loop pays for at most one per
// netlist.
var canonicalizations atomic.Uint64

// Canonicalizations returns the number of full canonical-form hashings
// performed process-wide since start. The delta across a workload is
// the regression-test surface for the fingerprint memo.
func Canonicalizations() uint64 { return canonicalizations.Load() }

// Fingerprint returns the canonical content hash of a netlist:
// "sha256:<hex>" over the module count, per-module areas (when set) and
// the sorted net structure. Module and net names are excluded — two
// netlists that differ only in naming are the same instance to every
// algorithm in this repository, which operate on indices.
//
// The result is memoized on the netlist (hypergraphs are immutable
// apart from SetAreas, which invalidates the memo), so a hot submit
// loop pays the O(pins log pins) canonicalization once per netlist, not
// once per job.
func Fingerprint(h *hypergraph.Hypergraph) string {
	if s := h.CanonicalHash(); s != "" {
		return s
	}
	s := fingerprintSlow(h)
	h.SetCanonicalHash(s)
	return s
}

func fingerprintSlow(h *hypergraph.Hypergraph) string {
	canonicalizations.Add(1)
	hash := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		hash.Write(buf[:n])
	}
	hash.Write([]byte("netlist-v1"))
	writeUvarint(uint64(h.NumModules()))
	if h.HasAreas() {
		hash.Write([]byte("areas"))
		for i, n := 0, h.NumModules(); i < n; i++ {
			binary.BigEndian.PutUint64(buf[:8], math.Float64bits(h.Area(i)))
			hash.Write(buf[:8])
		}
	}
	// Nets hold sorted distinct module indices (a Hypergraph invariant);
	// sorting the nets themselves makes the hash independent of net
	// declaration order, which no algorithm observes.
	nets := make([][]int, len(h.Nets))
	copy(nets, h.Nets)
	sortNets(nets)
	writeUvarint(uint64(len(nets)))
	for _, net := range nets {
		writeUvarint(uint64(len(net)))
		for _, m := range net {
			writeUvarint(uint64(m))
		}
	}
	return fmt.Sprintf("sha256:%x", hash.Sum(nil))
}

// sortNets orders nets lexicographically by their module lists.
func sortNets(nets [][]int) {
	sort.Slice(nets, func(a, b int) bool {
		x, y := nets[a], nets[b]
		for i := 0; i < len(x) && i < len(y); i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return len(x) < len(y)
	})
}

// Key identifies one cached decomposition family: a netlist content
// hash (see Fingerprint) plus the clique model it was decomposed under.
// It is the persistent store's key, so the two tiers never convert.
type Key = specstore.Key

// Entry is one cached value. Value is opaque to the cache (the daemon
// stores a *spectral.Spectrum); Pairs is its reuse capacity — the entry
// satisfies any request for at most Pairs eigenpairs.
type Entry struct {
	Value any
	Pairs int
}

// Stats reports cache effectiveness counters.
type Stats struct {
	// Hits and Misses count GetOrCompute lookups (jobs); a miss walks
	// the tiers below the LRU. Peer reads (Bytes) count in neither.
	Hits, Misses, Evictions uint64
	// StoreHits and RemoteHits count misses the persistent store or a
	// shard peer served without a solve.
	StoreHits, RemoteHits uint64
	// WarmHints counts keys announced via MarkExpected — decompositions
	// a journal replay said were cached before a restart.
	WarmHints uint64
	Entries   int
}

// Cache is a bounded content-addressed LRU of eigendecompositions.
// Safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // MRU at front; values are *slot
	items     map[Key]*list.Element
	inflight  map[Key]*call
	hits      uint64
	misses    uint64
	evicted   uint64
	warmHints uint64

	// The tiers below the LRU (see ladder.go): store is fixed at New,
	// remote is attached by SetRemote before traffic. Their hit counters
	// are atomic because misses walk the tiers outside mu.
	store      specstore.Store
	remote     RemoteSpectrum
	storeHits  atomic.Uint64
	remoteHits atomic.Uint64
}

type slot struct {
	key   Key
	entry Entry
}

// call is one in-flight compute shared by all concurrent requesters of
// a key. want is the largest pair count any of them needs; it only
// grows, under Cache.mu, until done closes.
type call struct {
	done  chan struct{}
	want  int
	entry Entry
	err   error
}

// New returns a cache holding at most maxEntries decompositions
// (minimum 1) in front of store, the persistent tier (nil for none).
// The cache does not close the store.
func New(maxEntries int, store specstore.Store) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		max:      maxEntries,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
		store:    store,
	}
}

// GetOrCompute returns the cached entry for key if it holds at least
// pairs eigenpairs, marking it most-recently-used; otherwise it runs
// compute (once, shared across concurrent callers of the same key) and
// caches the result. The second return reports a cache hit.
//
// compute is told how many pairs to deliver, which can exceed the
// caller's own request: a caller that finds a compute already in flight
// raises that call's want to its pair count and waits. If the call
// finishes smaller than its largest waiter needs, exactly one follow-up
// compute runs, sized to that waiter, and serves every undersized
// waiter — a d-sweep that arrives while one eigensolve runs costs one
// more, not one per distinct d.
//
// compute receives ctx only for cooperative cancellation of the calling
// request: if ctx is cancelled while waiting on another caller's
// compute, GetOrCompute returns ctx.Err() immediately but the shared
// compute keeps running and its result is still cached for the next
// request. Errors are not cached.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, pairs int, compute func(ctx context.Context, pairs int) (Entry, error)) (Entry, bool, error) {
	ctx, span := trace.Start(ctx, "cache.lookup",
		trace.Str("model", key.Model), trace.Int("pairs", pairs))
	entry, hit, err := c.getOrCompute(ctx, key, pairs, compute)
	if span != nil {
		span.Annotate(trace.Bool("hit", hit))
		span.End()
		tr := trace.FromContext(ctx)
		if hit {
			tr.Add("speccache.hits", 1)
			if entry.Pairs > pairs {
				// A larger cached decomposition served a smaller request —
				// the prefix-reuse path the d-sweep pattern relies on.
				tr.Add("speccache.prefix-reuse", 1)
			}
		} else if err == nil {
			tr.Add("speccache.misses", 1)
		}
	}
	return entry, hit, err
}

func (c *Cache) getOrCompute(ctx context.Context, key Key, pairs int, compute func(context.Context, int) (Entry, error)) (Entry, bool, error) {
	size := pairs
	c.mu.Lock()
	for {
		if el, ok := c.items[key]; ok {
			if s := el.Value.(*slot); s.entry.Pairs >= pairs {
				c.ll.MoveToFront(el)
				c.hits++
				entry := s.entry
				c.mu.Unlock()
				return entry, true, nil
			}
		}
		cl, ok := c.inflight[key]
		if !ok {
			break
		}
		if pairs > cl.want {
			cl.want = pairs
		}
		c.mu.Unlock()
		select {
		case <-cl.done:
		case <-ctx.Done():
			return Entry{}, false, ctx.Err()
		}
		if cl.err != nil {
			return Entry{}, false, cl.err
		}
		if cl.entry.Pairs >= pairs {
			return cl.entry, true, nil
		}
		// The call finished smaller than this waiter needs. Whichever
		// undersized waiter relocks first runs the follow-up at the
		// largest want the call collected; the others join it.
		size = max(size, cl.want)
		c.mu.Lock()
	}
	cl := &call{done: make(chan struct{}), want: size}
	c.inflight[key] = cl
	c.misses++
	c.mu.Unlock()

	cl.entry, cl.err = compute(ctx, size)
	if cl.err == nil && cl.entry.Pairs < size {
		cl.err = fmt.Errorf("speccache: compute delivered %d pairs, requested %d", cl.entry.Pairs, size)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insert(key, cl.entry)
	}
	c.mu.Unlock()
	close(cl.done)
	if cl.err != nil {
		return Entry{}, false, cl.err
	}
	return cl.entry, false, nil
}

// insert inserts or replaces the entry for key and evicts LRU entries
// beyond capacity. Caller holds c.mu. A replacement only ever grows an
// entry's capacity: computes are sized to the largest outstanding
// request. An evicted entry is simply dropped: every entry that reached
// the LRU from a solve or a peer was already written through to the
// store.
func (c *Cache) insert(key Key, e Entry) {
	if el, ok := c.items[key]; ok {
		s := el.Value.(*slot)
		if e.Pairs >= s.entry.Pairs {
			s.entry = e
		}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&slot{key: key, entry: e})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*slot).key)
		c.evicted++
	}
}

// MarkExpected announces that key is about to be recomputed as part of
// a warm restart (the journal recorded it as cached before a crash).
// It only counts the hint — the caller still runs GetOrCompute, whose
// singleflight coalesces the prewarm with any re-enqueued job needing
// the same decomposition.
func (c *Cache) MarkExpected(key Key) {
	c.mu.Lock()
	c.warmHints++
	c.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
		StoreHits: c.storeHits.Load(), RemoteHits: c.remoteHits.Load(),
		WarmHints: c.warmHints, Entries: c.ll.Len(),
	}
}
