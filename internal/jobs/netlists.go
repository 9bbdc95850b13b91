package jobs

import (
	"bytes"
	"fmt"
	"time"

	spectral "repro"
	"repro/internal/speccache"
)

// NetlistInfo describes a stored netlist.
type NetlistInfo struct {
	Hash    string    `json:"hash"`
	Name    string    `json:"name,omitempty"`
	Modules int       `json:"modules"`
	Nets    int       `json:"nets"`
	Pins    int       `json:"pins"`
	Stored  time.Time `json:"stored"`

	h *spectral.Netlist
}

// netEntry is one netlist store entry. Its info is immutable once
// stored; base is guarded by Pool.netMu.
type netEntry struct {
	info NetlistInfo
	// base memoizes this netlist's partition for the stability report
	// of the delta jobs run against it (see Pool.run). One slot: an ECO
	// session sends every delta with the same options.
	base *basePartition
}

// basePartition is a memoized base partition, packed like a job result.
type basePartition struct {
	opts   spectral.Options
	labels Labels
	k      int
}

// AddNetlist stores h under its content hash and, on a durable pool,
// journals it first, so the hash stays usable after a restart. A re-add
// or a lookup marks a netlist most recently used, so an ECO base that
// every delta names is never the one evicted. An error wrapping
// ErrJournal means the append failed, any other that h could not be
// serialized; either way h is not stored.
func (p *Pool) AddNetlist(name string, h *spectral.Netlist) (NetlistInfo, error) {
	e, inserted := p.putNetlist(speccache.Fingerprint(h), name, h)
	st := e.info
	// Published before its append, so a compaction in between carries it.
	if err := p.journalNetlist(st.Hash, st.Name, st.h, st.Stored); err != nil {
		p.netMu.Lock()
		if el := p.netItems[st.Hash]; inserted && el != nil && el.Value == e {
			delete(p.netItems, st.Hash)
			p.netLRU.Remove(el)
		}
		p.netMu.Unlock()
		return NetlistInfo{}, err
	}
	return st, nil
}

// putNetlist stores h under hash unless that hash is stored already,
// marks the entry most recently used and evicts beyond the bound. It
// reports whether this call inserted the entry.
func (p *Pool) putNetlist(hash, name string, h *spectral.Netlist) (*netEntry, bool) {
	p.netMu.Lock()
	defer p.netMu.Unlock()
	if el, ok := p.netItems[hash]; ok {
		p.netLRU.MoveToBack(el)
		return el.Value.(*netEntry), false
	}
	stats := h.Stats()
	e := &netEntry{info: NetlistInfo{hash, name, stats.Modules, stats.Nets, stats.Pins, time.Now(), h}}
	p.netItems[hash] = p.netLRU.PushBack(e)
	for p.netLRU.Len() > p.cfg.MaxNetlists {
		delete(p.netItems, p.netLRU.Remove(p.netLRU.Front()).(*netEntry).info.Hash)
	}
	return e, true
}

// Netlist returns the stored netlist with content hash hash and marks it
// most recently used.
func (p *Pool) Netlist(hash string) (*spectral.Netlist, NetlistInfo, bool) {
	p.netMu.Lock()
	defer p.netMu.Unlock()
	el, ok := p.netItems[hash]
	if !ok {
		return nil, NetlistInfo{}, false
	}
	p.netLRU.MoveToBack(el)
	st := el.Value.(*netEntry).info
	return st.h, st, true
}

// Netlists describes the stored netlists, least recently used (the next
// to be evicted) first.
func (p *Pool) Netlists() []NetlistInfo {
	p.netMu.Lock()
	defer p.netMu.Unlock()
	out := make([]NetlistInfo, 0, p.netLRU.Len())
	for el := p.netLRU.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*netEntry).info)
	}
	return out
}

// stabilityBase returns the memoized base partition of the stored
// netlist hash under opts, if the slot holds one for exactly those
// options. It does not mark the netlist used.
func (p *Pool) stabilityBase(hash string, opts spectral.Options) (*spectral.Partitioning, bool) {
	p.netMu.Lock()
	var m *basePartition
	if el, ok := p.netItems[hash]; ok {
		m = el.Value.(*netEntry).base
	}
	p.netMu.Unlock()
	if m == nil || m.opts != opts {
		return nil, false
	}
	return &spectral.Partitioning{Assign: m.labels.Ints(), K: m.k}, true
}

// memoizeStabilityBase fills the memo slot of the stored netlist hash
// with its partition under opts, replacing any other option set's. A
// netlist no longer stored memoizes nothing.
func (p *Pool) memoizeStabilityBase(hash string, opts spectral.Options, part *spectral.Partitioning) {
	m := &basePartition{opts, packLabels(part.Assign), part.K}
	p.netMu.Lock()
	defer p.netMu.Unlock()
	if el, ok := p.netItems[hash]; ok {
		el.Value.(*netEntry).base = m
	}
}

// journalNetlist durably records a netlist body: the one path by which
// netlists reach the journal. The journal builds the body only for a
// hash it has not recorded, so a repeat costs no serialization.
func (p *Pool) journalNetlist(hash, name string, h *spectral.Netlist, at time.Time) error {
	if p.jnl == nil {
		return nil
	}
	var saveErr error
	err := p.jnl.AppendNetlist(hash, name, func() ([]byte, error) {
		var buf bytes.Buffer
		saveErr = spectral.SaveNetlist(&buf, name, h)
		return buf.Bytes(), saveErr
	}, at.UnixNano())
	switch {
	case saveErr != nil:
		return fmt.Errorf("jobs: serialize netlist: %w", saveErr)
	case err != nil:
		p.noteJournalError()
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}
