package speccache

import (
	"context"

	spectral "repro"
	"repro/internal/specstore"
	"repro/internal/trace"
)

// Solve computes a decomposition with at least pairs eigenpairs: the
// ladder's last rung, supplied per request by the caller.
type Solve func(ctx context.Context, pairs int) (*spectral.Spectrum, error)

// Store returns the persistent tier (nil when there is none), for
// metrics.
func (c *Cache) Store() specstore.Store { return c.store }

// Spectrum resolves the decomposition of h keyed by key with at least
// pairs eigenpairs through the tier ladder: LRU, persistent store, then
// solve. GetOrCompute's singleflight wraps the whole walk, so
// concurrent requests for one key walk it once, sized to the largest of
// them.
//
// The store's payload is decoded against h, which rejects bytes for any
// other netlist, so nothing reaches the LRU unvalidated. A solve is
// encoded once and put in the store. Persistence is best-effort: a
// failed write costs a future recompute, never correctness.
func (c *Cache) Spectrum(ctx context.Context, h *spectral.Netlist, key Key, pairs int, solve Solve) (*spectral.Spectrum, error) {
	e, _, err := c.GetOrCompute(ctx, key, pairs, func(ctx context.Context, pairs int) (Entry, error) {
		sp, err := c.walk(ctx, h, key, pairs, solve)
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
func (c *Cache) walk(ctx context.Context, h *spectral.Netlist, key Key, pairs int, solve Solve) (*spectral.Spectrum, error) {
	if c.store != nil {
		if e, ok, err := c.store.Get(key); err == nil && ok && e.Pairs >= pairs {
			if sp, err := spectral.DecodeSpectrum(e.Data, h); err == nil && sp.Pairs() >= pairs {
				c.storeHits.Add(1)
				trace.FromContext(ctx).Add("specstore.tier-hits", 1)
				return sp, nil
			}
		}
	}
	sp, err := solve(ctx, pairs)
	if err != nil {
		return nil, err
	}
	if c.store != nil {
		if data, err := spectral.EncodeSpectrum(sp); err == nil {
			_ = c.store.Put(key, specstore.Entry{Pairs: sp.Pairs(), Data: data})
		}
	}
	return sp, nil
}
