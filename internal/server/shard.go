package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/shard"
	"repro/internal/speccache"
)

// peerTimeout bounds every proxied spectrum call. A slow peer must cost
// less than the eigensolve it would save, or the fallback is the better
// deal.
const peerTimeout = 10 * time.Second

// shardClient implements speccache.RemoteSpectrum over a rendezvous
// ring of spectrald base URLs: spectrum lookups for keys owned
// elsewhere are proxied to the owner, and locally computed spectra are
// offered to their owner so the shard converges on one copy per key.
// Every failure mode — owner down, owner misses, payload damaged —
// degrades to local compute.
type shardClient struct {
	ring     *shard.Ring
	client   *http.Client
	maxBytes int64

	proxied     atomic.Uint64 // fetches sent to a peer
	proxyHits   atomic.Uint64 // fetches a peer answered with a spectrum
	proxyMisses atomic.Uint64 // fetches a peer answered 404
	peerErrors  atomic.Uint64 // transport/protocol failures (peer down)
	offersSent  atomic.Uint64 // computed spectra pushed to their owner
}

// shardStats is a counter snapshot for /metrics.
type shardStats struct {
	peers                                               int
	proxied, proxyHits, proxyMisses, peerErrors, offers uint64
	servedPeerFetches, servedPeerMisses, adoptedSpectra uint64
	adoptRejects                                        uint64
}

// ConfigureSharding joins this server to a static shard of spectrald
// instances. self and peers are base URLs ("http://host:port"), spelled
// identically on every instance so each computes the same ring. Call
// after New and before the pool starts serving traffic.
func (s *Server) ConfigureSharding(self string, peers []string) error {
	ring, err := shard.New(strings.TrimSuffix(self, "/"), trimSlashes(peers))
	if err != nil {
		return err
	}
	sc := &shardClient{
		ring:     ring,
		client:   &http.Client{Timeout: peerTimeout},
		maxBytes: s.cfg.MaxBodyBytes,
	}
	s.shard = sc
	s.pool.Cache().SetRemote(sc)
	return nil
}

func trimSlashes(peers []string) []string {
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = strings.TrimSuffix(p, "/")
	}
	return out
}

// Ring exposes the shard ring (nil when sharding is not configured).
func (s *Server) Ring() *shard.Ring {
	if s.shard == nil {
		return nil
	}
	return s.shard.ring
}

func spectraURL(base, hash, model string, pairs int) string {
	return fmt.Sprintf("%s/v1/spectra?hash=%s&model=%s&pairs=%d",
		base, url.QueryEscape(hash), url.QueryEscape(model), pairs)
}

// Fetch implements speccache.RemoteSpectrum: ask the key's owner for an
// encoded spectrum. ok == false (never an error) covers every reason to
// compute locally instead — local ownership, owner miss, owner down.
func (c *shardClient) Fetch(ctx context.Context, hash, model string, pairs int) ([]byte, bool, error) {
	owner := c.ring.Owner(hash)
	if owner == c.ring.Self() {
		return nil, false, nil
	}
	c.proxied.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, spectraURL(owner, hash, model, pairs), nil)
	if err != nil {
		c.peerErrors.Add(1)
		return nil, false, nil
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.peerErrors.Add(1)
		return nil, false, nil
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		c.proxyMisses.Add(1)
		return nil, false, nil
	default:
		c.peerErrors.Add(1)
		return nil, false, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBytes+1))
	if err != nil || int64(len(data)) > c.maxBytes {
		c.peerErrors.Add(1)
		return nil, false, nil
	}
	c.proxyHits.Add(1)
	return data, true, nil
}

// Offer implements speccache.RemoteSpectrum: push a locally computed
// spectrum to its owner. Synchronous and best-effort — the caller just
// paid for an eigensolve, so one bounded HTTP round-trip is noise, and
// a deterministic hand-off is what makes "the owner has it" testable.
func (c *shardClient) Offer(hash, model string, pairs int, data []byte) {
	owner := c.ring.Owner(hash)
	if owner == c.ring.Self() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), peerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, spectraURL(owner, hash, model, pairs), bytes.NewReader(data))
	if err != nil {
		c.peerErrors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		c.peerErrors.Add(1)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode >= 300 {
		c.peerErrors.Add(1)
		return
	}
	c.offersSent.Add(1)
}

// spectraParams parses the common hash/model/pairs query triple.
func spectraParams(r *http.Request) (hash, model string, pairs int, err error) {
	q := r.URL.Query()
	hash, model = q.Get("hash"), q.Get("model")
	pairs, aerr := strconv.Atoi(q.Get("pairs"))
	switch {
	case hash == "" || model == "":
		err = fmt.Errorf("hash and model query parameters are required")
	case aerr != nil || pairs < 1:
		err = fmt.Errorf("pairs must be a positive integer")
	}
	return hash, model, pairs, err
}

// handleGetSpectrum serves a shard peer's spectrum lookup from the
// local cache and store, never by computing or re-proxying.
func (s *Server) handleGetSpectrum(w http.ResponseWriter, r *http.Request) {
	hash, model, pairs, err := spectraParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, got, ok := s.pool.Cache().Bytes(speccache.Key{Hash: hash, Model: model}, pairs)
	if !ok {
		s.peerFetchMisses.Add(1)
		writeError(w, http.StatusNotFound, "no cached spectrum for %s/%s with >= %d pairs", hash, model, pairs)
		return
	}
	s.peerFetchesServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Spectrald-Pairs", strconv.Itoa(got))
	_, _ = w.Write(data)
}

// handlePutSpectrum accepts a spectrum offered by a shard peer. When
// the matching netlist is stored here the payload is validated against
// it and seeded into the hot cache; otherwise it lands in the
// persistent store, to be validated on first read. With neither, the
// offer is refused with 404: nothing here could keep it.
func (s *Server) handlePutSpectrum(w http.ResponseWriter, r *http.Request) {
	hash, model, pairs, err := spectraParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "read body: %v", err)
		return
	}
	h, _, _ := s.pool.Netlist(hash)
	if err := s.pool.Cache().Adopt(speccache.Key{Hash: hash, Model: model}, pairs, data, h); err != nil {
		s.adoptRejects.Add(1)
		status := http.StatusUnprocessableEntity
		if errors.Is(err, speccache.ErrUnkept) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	s.adoptedSpectra.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// shardStatsSnapshot collects the shard counters for /metrics (zero
// value when sharding is off — the served/adopted counters still count,
// since the endpoints answer regardless).
func (s *Server) shardStatsSnapshot() shardStats {
	st := shardStats{
		servedPeerFetches: s.peerFetchesServed.Load(),
		servedPeerMisses:  s.peerFetchMisses.Load(),
		adoptedSpectra:    s.adoptedSpectra.Load(),
		adoptRejects:      s.adoptRejects.Load(),
	}
	if c := s.shard; c != nil {
		st.peers = c.ring.N()
		st.proxied = c.proxied.Load()
		st.proxyHits = c.proxyHits.Load()
		st.proxyMisses = c.proxyMisses.Load()
		st.peerErrors = c.peerErrors.Load()
		st.offers = c.offersSent.Load()
	}
	return st
}
