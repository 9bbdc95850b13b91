package speccache

import (
	"context"
	"errors"
	"fmt"

	spectral "repro"
	"repro/internal/specstore"
	"repro/internal/trace"
)

// RemoteSpectrum proxies spectrum traffic to the shard peer owning a
// fingerprint. Implementations return ok == false (not an error) when
// the key is owned locally, the peer misses, or the peer is down — the
// ladder then solves locally, so a dead peer degrades throughput, never
// availability.
type RemoteSpectrum interface {
	// Fetch retrieves an encoded spectrum (EncodeSpectrum format) with
	// capacity >= pairs for (hash, model) from the owning peer.
	Fetch(ctx context.Context, hash, model string, pairs int) (data []byte, ok bool, err error)
	// Offer pushes a locally solved spectrum toward the owning peer,
	// best-effort, so the shard's owner converges on holding its keys.
	Offer(hash, model string, pairs int, data []byte)
}

// ErrUnkept rejects a peer's offer that no local tier can hold: the
// cache has neither the netlist to validate the payload against nor a
// store to keep it until one arrives.
var ErrUnkept = errors.New("speccache: no netlist to validate the offered spectrum and no store to keep it")

// Solve computes a decomposition with at least pairs eigenpairs: the
// ladder's last rung, supplied per request by the caller.
type Solve func(ctx context.Context, pairs int) (*spectral.Spectrum, error)

// SetRemote attaches a shard-peer fetcher. Call before the cache sees
// traffic; a nil remote (the default) keeps all spectrum work local.
func (c *Cache) SetRemote(r RemoteSpectrum) { c.remote = r }

// Store returns the persistent tier (nil when there is none), for
// metrics.
func (c *Cache) Store() specstore.Store { return c.store }

// Spectrum resolves the decomposition of h keyed by key with at least
// pairs eigenpairs through the tier ladder: LRU, persistent store, the
// shard peer owning the key (when peer is set and a remote is
// attached), then solve. GetOrCompute's singleflight wraps the whole
// walk, so concurrent requests for one key walk it once, sized to the
// largest of them.
//
// Every byte tier's payload is decoded against h, which rejects bytes
// for any other netlist, so nothing reaches the LRU unvalidated. A peer
// hit is put in the store as the peer's bytes; a solve is encoded once,
// put in the store and, when peer is set, offered to the owning peer.
// Persistence is best-effort: a failed write costs a future recompute,
// never correctness.
func (c *Cache) Spectrum(ctx context.Context, h *spectral.Netlist, key Key, pairs int, peer bool, solve Solve) (*spectral.Spectrum, error) {
	peer = peer && c.remote != nil
	e, _, err := c.GetOrCompute(ctx, key, pairs, func(ctx context.Context, pairs int) (Entry, error) {
		sp, err := c.walk(ctx, h, key, pairs, peer, solve)
		if err != nil {
			return Entry{}, err
		}
		return Entry{Value: sp, Pairs: sp.Pairs()}, nil
	})
	if err != nil {
		return nil, err
	}
	return e.Value.(*spectral.Spectrum), nil
}

// walk runs the rungs below the LRU for one miss.
func (c *Cache) walk(ctx context.Context, h *spectral.Netlist, key Key, pairs int, peer bool, solve Solve) (*spectral.Spectrum, error) {
	tr := trace.FromContext(ctx)
	if c.store != nil {
		if e, ok, err := c.store.Get(key); err == nil && ok && e.Pairs >= pairs {
			if sp, err := decode(e.Data, h, pairs); err == nil {
				c.storeHits.Add(1)
				tr.Add("specstore.tier-hits", 1)
				return sp, nil
			}
		}
	}
	if peer {
		if data, ok, err := c.remote.Fetch(ctx, key.Hash, key.Model, pairs); err == nil && ok {
			if sp, err := decode(data, h, pairs); err == nil {
				c.remoteHits.Add(1)
				tr.Add("shard.remote-hits", 1)
				c.put(key, sp.Pairs(), data)
				return sp, nil
			}
		}
	}
	sp, err := solve(ctx, pairs)
	if err != nil {
		return nil, err
	}
	if c.store != nil || peer {
		if data, err := spectral.EncodeSpectrum(sp); err == nil {
			c.put(key, sp.Pairs(), data)
			if peer {
				c.remote.Offer(key.Hash, key.Model, sp.Pairs(), data)
			}
		}
	}
	return sp, nil
}

// put writes encoded bytes through to the store, when there is one.
func (c *Cache) put(key Key, pairs int, data []byte) {
	if c.store != nil {
		_ = c.store.Put(key, specstore.Entry{Pairs: pairs, Data: data})
	}
}

// decode decodes an encoded spectrum against h and checks it holds at
// least pairs eigenpairs.
func decode(data []byte, h *spectral.Netlist, pairs int) (*spectral.Spectrum, error) {
	sp, err := spectral.DecodeSpectrum(data, h)
	if err != nil {
		return nil, err
	}
	if sp.Pairs() < pairs {
		return nil, fmt.Errorf("payload holds %d pairs, want %d", sp.Pairs(), pairs)
	}
	return sp, nil
}

// Bytes serves a shard peer's lookup from the local tiers only — LRU,
// then store. It never proxies (so forwarding chains cannot loop) and
// never solves (so a lookup storm cannot schedule work on the owner;
// the requester solves and offers the result back). It leaves Hits and
// Misses alone: those count jobs, and the server counts peer lookups.
func (c *Cache) Bytes(key Key, pairs int) ([]byte, int, bool) {
	var sp *spectral.Spectrum
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		if s := el.Value.(*slot); s.entry.Pairs >= pairs {
			c.ll.MoveToFront(el)
			sp, _ = s.entry.Value.(*spectral.Spectrum)
		}
	}
	c.mu.Unlock()
	if sp != nil {
		if data, err := spectral.EncodeSpectrum(sp); err == nil {
			return data, sp.Pairs(), true
		}
	}
	if c.store != nil {
		if e, ok, err := c.store.Get(key); err == nil && ok && e.Pairs >= pairs {
			return e.Data, e.Pairs, true
		}
	}
	return nil, 0, false
}

// Adopt accepts an encoded spectrum offered by a shard peer. Given the
// matching netlist h, the payload is decoded (and thereby validated)
// against it and seeded into the LRU; either way it lands in the store,
// where a later read re-validates it against the real netlist before
// use — a peer can waste disk, never poison an answer. It is stored
// under the pair count it holds, not the one the offer claims: the store
// keeps a key's largest count, so an overstated one would refuse every
// later write of the key. With neither h nor a store the offer has
// nowhere to go: ErrUnkept.
func (c *Cache) Adopt(key Key, pairs int, data []byte, h *spectral.Netlist) error {
	if len(data) == 0 {
		return fmt.Errorf("speccache: adopt spectrum: empty payload")
	}
	if h == nil && c.store == nil {
		return ErrUnkept
	}
	var err error
	if h != nil {
		sp, err := decode(data, h, pairs)
		if err != nil {
			return fmt.Errorf("speccache: adopt spectrum: %w", err)
		}
		pairs = sp.Pairs()
		c.mu.Lock()
		c.insert(key, Entry{Value: sp, Pairs: pairs})
		c.mu.Unlock()
	} else if pairs, err = spectral.SpectrumPairs(data); err != nil {
		return fmt.Errorf("speccache: adopt spectrum: %w", err)
	}
	if c.store == nil {
		return nil
	}
	return c.store.Put(key, specstore.Entry{Pairs: pairs, Data: data})
}
