// Package hypergraph models VLSI netlists as hypergraphs: a set of
// modules (cells) and a set of nets (hyperedges), each net connecting two
// or more modules through pins.
//
// The package provides construction, statistics, connectivity queries,
// sub-hypergraph extraction for recursive partitioning, and a simple text
// interchange format.
package hypergraph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Hypergraph is an immutable netlist. Build one with a Builder or a
// constructor; do not mutate the exported slices.
type Hypergraph struct {
	// Names holds one name per module. Module indices are 0-based.
	Names []string
	// Nets holds, for each net, the sorted list of distinct module
	// indices it connects. Every net has at least two modules.
	Nets [][]int
	// NetNames holds one name per net (parallel to Nets).
	NetNames []string

	// pinNets[pinOff[i]:pinOff[i+1]] lists the nets incident to module
	// i (sorted): one flat array plus n+1 offsets, not n slice headers.
	pinOff, pinNets []int
	// areas holds per-module areas; nil means unit areas (see areas.go).
	areas []float64

	// canonHash memoizes the canonical content fingerprint (computed by
	// internal/speccache.Fingerprint). A Hypergraph is immutable after
	// construction, so the O(pins) canonicalization need run only once
	// per netlist no matter how many jobs are submitted against it. nil
	// means "not yet computed".
	canonHash atomic.Pointer[string]
}

// CanonicalHash returns the memoized content fingerprint, or "" if none
// has been recorded yet.
func (h *Hypergraph) CanonicalHash() string {
	if p := h.canonHash.Load(); p != nil {
		return *p
	}
	return ""
}

// SetCanonicalHash records the content fingerprint for reuse. The first
// recorded value wins; later calls are no-ops, so concurrent recorders
// cannot flap the memo.
func (h *Hypergraph) SetCanonicalHash(hash string) {
	if hash == "" {
		return
	}
	h.canonHash.CompareAndSwap(nil, &hash)
}

// NumModules returns the number of modules.
func (h *Hypergraph) NumModules() int { return len(h.Names) }

// NumNets returns the number of nets.
func (h *Hypergraph) NumNets() int { return len(h.Nets) }

// NumPins returns the total number of pins (module-net incidences).
func (h *Hypergraph) NumPins() int {
	p := 0
	for _, net := range h.Nets {
		p += len(net)
	}
	return p
}

// Degree returns the number of nets incident to module i.
func (h *Hypergraph) Degree(i int) int { return h.pinOff[i+1] - h.pinOff[i] }

// NetsOf returns the nets incident to module i. The returned slice must
// not be modified.
func (h *Hypergraph) NetsOf(i int) []int {
	lo, hi := h.pinOff[i], h.pinOff[i+1]
	return h.pinNets[lo:hi:hi]
}

// MaxNetSize returns the number of modules on the largest net (0 for an
// empty hypergraph).
func (h *Hypergraph) MaxNetSize() int {
	m := 0
	for _, net := range h.Nets {
		if len(net) > m {
			m = len(net)
		}
	}
	return m
}

// Stats summarizes a netlist for reporting (the paper's Table 1 columns).
type Stats struct {
	Modules, Nets, Pins int
	AvgNetSize          float64
	MaxNetSize          int
}

// Stats returns the summary statistics of the hypergraph.
func (h *Hypergraph) Stats() Stats {
	s := Stats{Modules: h.NumModules(), Nets: h.NumNets(), Pins: h.NumPins(), MaxNetSize: h.MaxNetSize()}
	if s.Nets > 0 {
		s.AvgNetSize = float64(s.Pins) / float64(s.Nets)
	}
	return s
}

// Builder incrementally constructs a hypergraph.
type Builder struct {
	names    []string
	index    map[string]int
	nets     [][]int
	netNames []string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int)}
}

// AddModule registers a module by name and returns its index. Re-adding an
// existing name returns the existing index.
func (b *Builder) AddModule(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.names = append(b.names, name)
	b.index[name] = i
	return i
}

// AddModules registers n anonymous modules named "m0" … and returns the
// index of the first.
func (b *Builder) AddModules(n int) int {
	first := len(b.names)
	for i := 0; i < n; i++ {
		b.AddModule(fmt.Sprintf("m%d", first+i))
	}
	return first
}

// AddNet adds a net connecting the given module indices. Duplicate module
// indices within a net are collapsed; nets with fewer than two distinct
// modules are rejected.
func (b *Builder) AddNet(name string, modules ...int) error {
	set := make(map[int]bool, len(modules))
	for _, m := range modules {
		if m < 0 || m >= len(b.names) {
			return fmt.Errorf("hypergraph: net %q references unknown module %d", name, m)
		}
		set[m] = true
	}
	if len(set) < 2 {
		return fmt.Errorf("hypergraph: net %q connects fewer than 2 distinct modules", name)
	}
	net := make([]int, 0, len(set))
	for m := range set {
		net = append(net, m)
	}
	sort.Ints(net)
	b.nets = append(b.nets, net)
	if name == "" {
		name = fmt.Sprintf("n%d", len(b.nets)-1)
	}
	b.netNames = append(b.netNames, name)
	return nil
}

// Build finalizes the hypergraph.
func (b *Builder) Build() *Hypergraph {
	h := &Hypergraph{Names: b.names, Nets: b.nets, NetNames: b.netNames}
	h.buildPins()
	return h
}

// FromParts builds a hypergraph directly from ready-made components,
// skipping the Builder's name indexing and per-net deduplication. Every
// net must already satisfy Validate's invariants (sorted, duplicate-free,
// in range, >= 2 modules); the slices are retained, not copied. It exists
// for bulk construction on hot paths (multilevel contraction builds one
// netlist per V-cycle level).
func FromParts(names []string, nets [][]int, netNames []string) (*Hypergraph, error) {
	h := &Hypergraph{Names: names, Nets: nets, NetNames: netNames}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	h.buildPins()
	return h, nil
}

func (h *Hypergraph) buildPins() {
	n := len(h.Names)
	off := make([]int, n+1)
	for _, net := range h.Nets {
		for _, m := range net {
			off[m+1]++
		}
	}
	for m := 0; m < n; m++ {
		off[m+1] += off[m]
	}
	// Filling nets in index order leaves each list sorted, as NetsOf
	// documents; next[m] is module m's fill position.
	flat := make([]int, off[n])
	next := append([]int(nil), off[:n]...)
	for e, net := range h.Nets {
		for _, m := range net {
			flat[next[m]] = e
			next[m]++
		}
	}
	h.pinOff, h.pinNets = off, flat
}

// IsConnected reports whether the hypergraph is connected (every module
// reachable from module 0 through shared nets). An empty hypergraph is
// considered connected.
func (h *Hypergraph) IsConnected() bool {
	n := h.NumModules()
	if n <= 1 {
		return true
	}
	return len(h.componentOf(0)) == n
}

// Components returns the connected components as slices of module
// indices, each sorted, ordered by smallest member.
func (h *Hypergraph) Components() [][]int {
	n := h.NumModules()
	seen := make([]bool, n)
	var comps [][]int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		c := h.componentOf(i)
		for _, m := range c {
			seen[m] = true
		}
		comps = append(comps, c)
	}
	return comps
}

func (h *Hypergraph) componentOf(start int) []int {
	visited := make(map[int]bool)
	netSeen := make([]bool, len(h.Nets))
	queue := []int{start}
	visited[start] = true
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		for _, e := range h.NetsOf(m) {
			if netSeen[e] {
				continue
			}
			netSeen[e] = true
			for _, other := range h.Nets[e] {
				if !visited[other] {
					visited[other] = true
					queue = append(queue, other)
				}
			}
		}
	}
	comp := make([]int, 0, len(visited))
	for m := range visited {
		comp = append(comp, m)
	}
	sort.Ints(comp)
	return comp
}

// Induce extracts the sub-hypergraph on the given modules. Nets are kept
// (restricted to the subset) when at least two of their modules are in the
// subset. The second return value maps new module indices back to the
// original indices.
func (h *Hypergraph) Induce(modules []int) (*Hypergraph, []int) {
	old2new := make(map[int]int, len(modules))
	back := make([]int, len(modules))
	names := make([]string, len(modules))
	for newIdx, oldIdx := range modules {
		old2new[oldIdx] = newIdx
		back[newIdx] = oldIdx
		names[newIdx] = h.Names[oldIdx]
	}
	sub := &Hypergraph{Names: names}
	for e, net := range h.Nets {
		var kept []int
		for _, m := range net {
			if nm, ok := old2new[m]; ok {
				kept = append(kept, nm)
			}
		}
		if len(kept) >= 2 {
			sort.Ints(kept)
			sub.Nets = append(sub.Nets, kept)
			sub.NetNames = append(sub.NetNames, h.NetNames[e])
		}
	}
	if h.areas != nil {
		sub.areas = make([]float64, len(modules))
		for newIdx, oldIdx := range modules {
			sub.areas[newIdx] = h.areas[oldIdx]
		}
	}
	sub.buildPins()
	return sub, back
}

// Validate checks internal consistency and returns a descriptive error for
// the first violation found. Hypergraphs produced by Builder are always
// valid; Validate is useful after manual construction or parsing.
func (h *Hypergraph) Validate() error {
	n := h.NumModules()
	if len(h.NetNames) != len(h.Nets) {
		return fmt.Errorf("hypergraph: %d nets but %d net names", len(h.Nets), len(h.NetNames))
	}
	for e, net := range h.Nets {
		if len(net) < 2 {
			return fmt.Errorf("hypergraph: net %d has %d modules, want >= 2", e, len(net))
		}
		for i, m := range net {
			if m < 0 || m >= n {
				return fmt.Errorf("hypergraph: net %d references module %d out of range [0,%d)", e, m, n)
			}
			if i > 0 && net[i-1] >= m {
				return fmt.Errorf("hypergraph: net %d is not sorted/deduplicated", e)
			}
		}
	}
	return nil
}
