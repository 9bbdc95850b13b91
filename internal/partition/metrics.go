package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// CutWeight returns the total weight of graph edges whose endpoints lie in
// different clusters (each edge counted once).
func CutWeight(g *graph.Graph, p *Partition) float64 {
	var cut float64
	for u := 0; u < g.N(); u++ {
		for _, h := range g.Adj(u) {
			if u < h.To && p.Assign[u] != p.Assign[h.To] {
				cut += h.W
			}
		}
	}
	return cut
}

// F returns the paper's min-cut objective f(P_k) = Σ_h E_h, which counts
// the cost of each cut edge twice (Theorem 1: f = trace(XᵀQX)).
func F(g *graph.Graph, p *Partition) float64 {
	return 2 * CutWeight(g, p)
}

// NetCut returns the number of hyperedges (nets) that span more than one
// cluster — the standard VLSI min-cut objective.
func NetCut(h *hypergraph.Hypergraph, p *Partition) int {
	cut := 0
	for _, net := range h.Nets {
		first := p.Assign[net[0]]
		for _, m := range net[1:] {
			if p.Assign[m] != first {
				cut++
				break
			}
		}
	}
	return cut
}

// NetClusterCutDegrees returns, for each cluster h, the number of cut nets
// incident to at least one module of C_h (the hypergraph analogue of E_h,
// used by the Scaled Cost objective of Chan et al. [10]).
func NetClusterCutDegrees(h *hypergraph.Hypergraph, p *Partition) []int {
	e := make([]int, p.K)
	touched := make([]bool, p.K)
	for _, net := range h.Nets {
		for i := range touched {
			touched[i] = false
		}
		spans := false
		first := p.Assign[net[0]]
		for _, m := range net {
			c := p.Assign[m]
			touched[c] = true
			if c != first {
				spans = true
			}
		}
		if spans {
			for c, t := range touched {
				if t {
					e[c]++
				}
			}
		}
	}
	return e
}

// ScaledCost returns the Scaled Cost objective of Chan–Schlag–Zien [10]
// over the hypergraph:
//
//	ScaledCost(P_k) = (1 / (n(k−1))) · Σ_h E_h / |C_h|
//
// where E_h counts cut nets incident to cluster C_h. For k = 2 this
// reduces to the ratio cut E/(|C_1|·|C_2|). Partitions with an empty
// cluster have infinite scaled cost; +Inf is returned.
func ScaledCost(h *hypergraph.Hypergraph, p *Partition) float64 {
	n := h.NumModules()
	if n != p.N() {
		panic(fmt.Sprintf("partition: hypergraph has %d modules but partition %d", n, p.N()))
	}
	sizes := p.Sizes()
	e := NetClusterCutDegrees(h, p)
	var sum float64
	for c := 0; c < p.K; c++ {
		if sizes[c] == 0 {
			return inf()
		}
		sum += float64(e[c]) / float64(sizes[c])
	}
	return sum / (float64(n) * float64(p.K-1))
}

// RatioCut returns cut/(|C_1|·|C_2|) for a bipartition over the
// hypergraph net cut. It panics if p.K != 2.
func RatioCut(h *hypergraph.Hypergraph, p *Partition) float64 {
	if p.K != 2 {
		panic("partition: RatioCut requires a bipartition")
	}
	sizes := p.Sizes()
	if sizes[0] == 0 || sizes[1] == 0 {
		return inf()
	}
	return float64(NetCut(h, p)) / (float64(sizes[0]) * float64(sizes[1]))
}

// GraphRatioCut returns cutWeight/(|C_1|·|C_2|) for a graph bipartition.
func GraphRatioCut(g *graph.Graph, p *Partition) float64 {
	if p.K != 2 {
		panic("partition: GraphRatioCut requires a bipartition")
	}
	sizes := p.Sizes()
	if sizes[0] == 0 || sizes[1] == 0 {
		return inf()
	}
	return CutWeight(g, p) / (float64(sizes[0]) * float64(sizes[1]))
}

func inf() float64 { return math.Inf(1) }
