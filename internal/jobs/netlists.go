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

// AddNetlist stores h under its content hash and, on a durable pool,
// journals it first, so the hash stays usable after a restart. A re-add
// or a lookup marks a netlist most recently used, so an ECO base that
// every delta names is never the one evicted. An error wrapping
// ErrJournal means the append failed, any other that h could not be
// serialized; either way h is not stored.
func (p *Pool) AddNetlist(name string, h *spectral.Netlist) (NetlistInfo, error) {
	st, inserted := p.putNetlist(speccache.Fingerprint(h), name, h)
	// Published before its append, so a compaction in between carries it.
	if err := p.journalNetlist(st.Hash, st.Name, st.h, st.Stored); err != nil {
		p.netMu.Lock()
		if el := p.netItems[st.Hash]; inserted && el != nil && el.Value == st {
			delete(p.netItems, st.Hash)
			p.netLRU.Remove(el)
		}
		p.netMu.Unlock()
		return NetlistInfo{}, err
	}
	return *st, nil
}

// putNetlist stores h under hash unless that hash is stored already,
// marks the entry most recently used and evicts beyond the bound. It
// reports whether this call inserted the entry, which is immutable.
func (p *Pool) putNetlist(hash, name string, h *spectral.Netlist) (*NetlistInfo, bool) {
	p.netMu.Lock()
	defer p.netMu.Unlock()
	if el, ok := p.netItems[hash]; ok {
		p.netLRU.MoveToBack(el)
		return el.Value.(*NetlistInfo), false
	}
	stats := h.Stats()
	st := &NetlistInfo{hash, name, stats.Modules, stats.Nets, stats.Pins, time.Now(), h}
	p.netItems[hash] = p.netLRU.PushBack(st)
	for p.netLRU.Len() > p.cfg.MaxNetlists {
		delete(p.netItems, p.netLRU.Remove(p.netLRU.Front()).(*NetlistInfo).Hash)
	}
	return st, true
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
	st := el.Value.(*NetlistInfo)
	return st.h, *st, true
}

// Netlists describes the stored netlists, least recently used (the next
// to be evicted) first.
func (p *Pool) Netlists() []NetlistInfo {
	p.netMu.Lock()
	defer p.netMu.Unlock()
	out := make([]NetlistInfo, 0, p.netLRU.Len())
	for el := p.netLRU.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*NetlistInfo))
	}
	return out
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
