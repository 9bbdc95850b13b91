// Package delta models incremental netlist changes (ECO — engineering
// change orders) against a content-addressed base hypergraph.
//
// A Delta edits the net set and module areas of a fixed module
// population: nets can be added, removed (by name), or have their pin
// list replaced, and module areas can be updated. Module count never
// changes — an ECO that adds or drops cells is a new base upload, not a
// delta. Apply never mutates the base; it builds a fresh Hypergraph so
// the base (and any cached decomposition keyed on its fingerprint)
// stays valid.
//
// Apply also reports the perturbation's Reach — how many modules and
// nets the edit touches — which callers use to decide whether a
// warm-started eigensolve is worth attempting and to annotate traces.
package delta

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hypergraph"
)

// NetChange names a net and gives its (new) module list. In AddNets the
// name must be unused; in SetPins it must name exactly one existing net.
type NetChange struct {
	Name    string `json:"name"`
	Modules []int  `json:"modules"`
}

// AreaChange updates one module's area.
type AreaChange struct {
	Module int     `json:"module"`
	Area   float64 `json:"area"`
}

// Delta is one batch of netlist edits, applied atomically: removals
// first, then pin replacements, then additions, then area updates. An
// empty Delta is valid and yields a netlist with the base's fingerprint.
type Delta struct {
	// RemoveNets deletes nets by name.
	RemoveNets []string `json:"removeNets,omitempty"`
	// SetPins replaces the module lists of existing nets (matched by
	// name; the net keeps its name and position).
	SetPins []NetChange `json:"setPins,omitempty"`
	// AddNets appends new nets.
	AddNets []NetChange `json:"addNets,omitempty"`
	// SetAreas updates per-module areas. Setting areas on a base without
	// areas gives every untouched module area 1.
	SetAreas []AreaChange `json:"setAreas,omitempty"`
}

// Empty reports whether the delta contains no edits.
func (d *Delta) Empty() bool {
	return d == nil || len(d.RemoveNets) == 0 && len(d.SetPins) == 0 && len(d.AddNets) == 0 && len(d.SetAreas) == 0
}

// Ops returns the number of individual edits in the delta.
func (d *Delta) Ops() int {
	if d == nil {
		return 0
	}
	return len(d.RemoveNets) + len(d.SetPins) + len(d.AddNets) + len(d.SetAreas)
}

// Reach measures how much of the base a delta perturbs: the modules on
// any removed, repinned (old or new pins), or added net, plus modules
// whose area actually changed. The eigensolver warm-start heuristic and
// the job traces consume it.
type Reach struct {
	// Modules is the number of distinct modules touched by the edit.
	Modules int `json:"modules"`
	// Nets is the number of nets removed, repinned, or added.
	Nets int `json:"nets"`
	// Frac is Modules over the base module count (0 for an empty base).
	Frac float64 `json:"frac"`
}

// Apply builds the netlist that results from applying d to base,
// leaving base untouched, and reports the edit's Reach. It errors
// (without partial effects) when a removal or pin change names a
// missing or ambiguous net, an added net's name collides with a
// surviving net, a net has fewer than two distinct in-range modules, or
// an area update is out of range or not a positive finite value.
func Apply(base *hypergraph.Hypergraph, d *Delta) (*hypergraph.Hypergraph, Reach, error) {
	if base == nil {
		return nil, Reach{}, fmt.Errorf("delta: nil base")
	}
	n := base.NumModules()
	touched := make([]bool, n)
	var reach Reach

	// Resolve net names. Duplicate names are legal in a Hypergraph (the
	// Builder auto-names, but FromParts accepts anything), so a name is
	// only a valid edit target while it is unambiguous.
	index := make(map[string]int, base.NumNets())
	dup := make(map[string]bool)
	for i, name := range base.NetNames {
		if _, ok := index[name]; ok {
			dup[name] = true
		}
		index[name] = i
	}
	resolve := func(op, name string) (int, error) {
		if dup[name] {
			return 0, fmt.Errorf("delta: %s %q: net name is ambiguous in base", op, name)
		}
		i, ok := index[name]
		if !ok {
			return 0, fmt.Errorf("delta: %s %q: no such net", op, name)
		}
		return i, nil
	}

	// canonNet validates and canonicalizes a net's module list into the
	// sorted-distinct form FromParts requires.
	canonNet := func(op, name string, modules []int) ([]int, error) {
		out := make([]int, 0, len(modules))
		for _, m := range modules {
			if m < 0 || m >= n {
				return nil, fmt.Errorf("delta: %s %q: module %d out of range [0,%d)", op, name, m, n)
			}
			out = append(out, m)
		}
		sort.Ints(out)
		w := 0
		for i, m := range out {
			if i == 0 || m != out[w-1] {
				out[w] = m
				w++
			}
		}
		out = out[:w]
		if len(out) < 2 {
			return nil, fmt.Errorf("delta: %s %q: a net needs at least 2 distinct modules, got %d", op, name, len(out))
		}
		return out, nil
	}

	removed := make([]bool, base.NumNets())
	seenRemove := make(map[string]bool, len(d.RemoveNets))
	for _, name := range d.RemoveNets {
		if seenRemove[name] {
			return nil, Reach{}, fmt.Errorf("delta: removeNets %q: removed twice", name)
		}
		seenRemove[name] = true
		i, err := resolve("removeNets", name)
		if err != nil {
			return nil, Reach{}, err
		}
		removed[i] = true
		reach.Nets++
		for _, m := range base.Nets[i] {
			touched[m] = true
		}
	}

	repinned := make(map[int][]int, len(d.SetPins))
	for _, ch := range d.SetPins {
		i, err := resolve("setPins", ch.Name)
		if err != nil {
			return nil, Reach{}, err
		}
		if removed[i] {
			return nil, Reach{}, fmt.Errorf("delta: setPins %q: net is also removed", ch.Name)
		}
		if _, ok := repinned[i]; ok {
			return nil, Reach{}, fmt.Errorf("delta: setPins %q: repinned twice", ch.Name)
		}
		pins, err := canonNet("setPins", ch.Name, ch.Modules)
		if err != nil {
			return nil, Reach{}, err
		}
		repinned[i] = pins
		reach.Nets++
		for _, m := range base.Nets[i] {
			touched[m] = true
		}
		for _, m := range pins {
			touched[m] = true
		}
	}

	// Surviving net names, for add-collision checks.
	surviving := make(map[string]bool, base.NumNets())
	for i, name := range base.NetNames {
		if !removed[i] {
			surviving[name] = true
		}
	}
	added := make([][]int, 0, len(d.AddNets))
	addedNames := make([]string, 0, len(d.AddNets))
	for _, ch := range d.AddNets {
		if ch.Name == "" {
			return nil, Reach{}, fmt.Errorf("delta: addNets: empty net name")
		}
		if surviving[ch.Name] {
			return nil, Reach{}, fmt.Errorf("delta: addNets %q: name collides with an existing net", ch.Name)
		}
		surviving[ch.Name] = true
		pins, err := canonNet("addNets", ch.Name, ch.Modules)
		if err != nil {
			return nil, Reach{}, err
		}
		added = append(added, pins)
		addedNames = append(addedNames, ch.Name)
		reach.Nets++
		for _, m := range pins {
			touched[m] = true
		}
	}

	// Areas: start from the base's effective areas, apply updates, then
	// normalize all-unit areas back to "no areas" so a delta that only
	// restates the default cannot change the fingerprint.
	var areas []float64
	if base.HasAreas() || len(d.SetAreas) > 0 {
		areas = make([]float64, n)
		for i := range areas {
			areas[i] = base.Area(i)
		}
	}
	seenArea := make(map[int]bool, len(d.SetAreas))
	for _, ch := range d.SetAreas {
		if ch.Module < 0 || ch.Module >= n {
			return nil, Reach{}, fmt.Errorf("delta: setAreas: module %d out of range [0,%d)", ch.Module, n)
		}
		if seenArea[ch.Module] {
			return nil, Reach{}, fmt.Errorf("delta: setAreas: module %d set twice", ch.Module)
		}
		seenArea[ch.Module] = true
		if !(ch.Area > 0) || math.IsInf(ch.Area, 1) {
			return nil, Reach{}, fmt.Errorf("delta: setAreas: module %d: area must be a positive finite number, got %v", ch.Module, ch.Area)
		}
		if areas[ch.Module] != ch.Area {
			touched[ch.Module] = true
		}
		areas[ch.Module] = ch.Area
	}
	if areas != nil {
		unit := true
		for _, a := range areas {
			if a != 1 {
				unit = false
				break
			}
		}
		if unit {
			areas = nil
		}
	}

	// Assemble: surviving base nets in base order (repins in place),
	// then additions in delta order. Unmodified net slices are shared
	// with the immutable base.
	nets := make([][]int, 0, base.NumNets()+len(added))
	netNames := make([]string, 0, base.NumNets()+len(added))
	for i, net := range base.Nets {
		if removed[i] {
			continue
		}
		if pins, ok := repinned[i]; ok {
			net = pins
		}
		nets = append(nets, net)
		netNames = append(netNames, base.NetNames[i])
	}
	nets = append(nets, added...)
	netNames = append(netNames, addedNames...)

	// Module names never change: share them with the immutable base.
	h, err := hypergraph.FromParts(base.Names, nets, netNames)
	if err != nil {
		return nil, Reach{}, fmt.Errorf("delta: assembling result: %w", err)
	}
	if areas != nil {
		if err := h.SetAreas(areas); err != nil {
			return nil, Reach{}, fmt.Errorf("delta: applying areas: %w", err)
		}
	}

	for _, t := range touched {
		if t {
			reach.Modules++
		}
	}
	if n > 0 {
		reach.Frac = float64(reach.Modules) / float64(n)
	}
	return h, reach, nil
}
