// Package dprp implements splitting a vertex ordering into partitionings:
//
//   - single-split bipartitioning helpers (all splits, balanced splits,
//     best ratio-cut split) used by MELO, SB and RSB, and
//
//   - DP-RP, the dynamic-programming "restricted partitioning" algorithm
//     of Alpert–Kahng [1]: given an ordering, find the k-way partitioning
//     whose clusters are contiguous blocks of the ordering, minimizing
//     Scaled Cost subject to cluster-size bounds.
package dprp

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// CutProfile returns, for each split position s in 1..n−1, the number of
// nets cut when ordering[0:s] is one side and ordering[s:] the other.
// profile[0] corresponds to s = 1. Runs in O(pins + n).
func CutProfile(h *hypergraph.Hypergraph, order []int) []float64 {
	n := len(order)
	if n != h.NumModules() {
		panic(fmt.Sprintf("dprp: ordering covers %d modules, hypergraph has %d", n, h.NumModules()))
	}
	pos := invert(order)
	diff := make([]float64, n+1)
	for _, net := range h.Nets {
		lo, hi := span(net, pos)
		// Net is cut for split positions s in [lo+1, hi].
		diff[lo+1]++
		diff[hi+1]--
	}
	return accumulate(diff, n)
}

// GraphCutProfile is CutProfile for a weighted graph: profile[s−1] is the
// total weight of edges crossing split position s.
func GraphCutProfile(g *graph.Graph, order []int) []float64 {
	n := len(order)
	pos := invert(order)
	diff := make([]float64, n+1)
	for u := 0; u < g.N(); u++ {
		for _, half := range g.Adj(u) {
			if u < half.To {
				lo, hi := pos[u], pos[half.To]
				if lo > hi {
					lo, hi = hi, lo
				}
				diff[lo+1] += half.W
				diff[hi+1] -= half.W
			}
		}
	}
	return accumulate(diff, n)
}

func accumulate(diff []float64, n int) []float64 {
	profile := make([]float64, n-1)
	run := 0.0
	for s := 1; s < n; s++ {
		run += diff[s]
		profile[s-1] = run
	}
	return profile
}

func invert(order []int) []int {
	pos := make([]int, len(order))
	for p, v := range order {
		pos[v] = p
	}
	return pos
}

func span(net []int, pos []int) (lo, hi int) {
	lo, hi = pos[net[0]], pos[net[0]]
	for _, m := range net[1:] {
		p := pos[m]
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return lo, hi
}

// SplitResult describes the best split found by a bipartitioning sweep.
type SplitResult struct {
	// Pos is the split position: the first Pos ordering entries form
	// cluster 0.
	Pos int
	// Cut is the objective at the split (net count, edge weight, or ratio
	// cut depending on the sweep).
	Cut float64
	// Partition is the resulting bipartition over the original indices.
	Partition *partition.Partition
}

// BestBalancedSplit scans all split positions whose smaller side holds at
// least minFrac of the elements (the paper's Table 5 uses minFrac = 0.45)
// and returns the minimum net cut. Ties prefer the most balanced split.
func BestBalancedSplit(h *hypergraph.Hypergraph, order []int, minFrac float64) (SplitResult, error) {
	if len(order) != h.NumModules() {
		return SplitResult{}, fmt.Errorf("dprp: ordering covers %d modules, hypergraph has %d", len(order), h.NumModules())
	}
	if len(order) < 2 {
		return SplitResult{}, fmt.Errorf("dprp: cannot split an ordering of %d elements", len(order))
	}
	profile := CutProfile(h, order)
	return bestSplit(order, profile, minFrac, false)
}

// BestRatioCutSplit scans all split positions and returns the one
// minimizing cut(s)/(s·(n−s)) — the split rule of spectral bipartitioning
// in the Hagen–Kahng ratio-cut formulation [25].
func BestRatioCutSplit(h *hypergraph.Hypergraph, order []int) (SplitResult, error) {
	profile := CutProfile(h, order)
	return bestSplit(order, profile, 0, true)
}

// BestRatioCutSplitBalanced is BestRatioCutSplit restricted to splits
// whose smaller side holds at least minFrac of the elements — useful when
// pure ratio cut would peel single vertices (e.g. in hierarchical
// clustering).
func BestRatioCutSplitBalanced(h *hypergraph.Hypergraph, order []int, minFrac float64) (SplitResult, error) {
	profile := CutProfile(h, order)
	return bestSplit(order, profile, minFrac, true)
}

// BestBalancedSplitGraph is BestBalancedSplit for a weighted graph.
func BestBalancedSplitGraph(g *graph.Graph, order []int, minFrac float64) (SplitResult, error) {
	profile := GraphCutProfile(g, order)
	return bestSplit(order, profile, minFrac, false)
}

func bestSplit(order []int, profile []float64, minFrac float64, ratio bool) (SplitResult, error) {
	n := len(order)
	if n < 2 {
		return SplitResult{}, fmt.Errorf("dprp: cannot split an ordering of %d elements", n)
	}
	lo := int(math.Ceil(minFrac * float64(n)))
	// For odd n a fractional bound can exceed the most balanced
	// achievable smaller side (minFrac = 0.45, n = 5: ceil(2.25) = 3 > 2),
	// which would reject every split including the perfectly balanced
	// one. Relax to the most balanced split instead of failing.
	if most := n / 2; lo > most && minFrac <= 0.5 {
		lo = most
	}
	if lo < 1 {
		lo = 1
	}
	hi := n - lo
	if hi < lo {
		return SplitResult{}, fmt.Errorf("dprp: balance bound %.2f leaves no feasible split for n=%d", minFrac, n)
	}
	bestPos := -1
	best := math.Inf(1)
	mid := float64(n) / 2
	for s := lo; s <= hi; s++ {
		c := profile[s-1]
		if ratio {
			c = c / (float64(s) * float64(n-s))
		}
		if c < best || (c == best && math.Abs(float64(s)-mid) < math.Abs(float64(bestPos)-mid)) {
			best = c
			bestPos = s
		}
	}
	p, err := partition.FromOrderSplit(order, []int{bestPos}, 2)
	if err != nil {
		return SplitResult{}, err
	}
	return SplitResult{Pos: bestPos, Cut: best, Partition: p}, nil
}
