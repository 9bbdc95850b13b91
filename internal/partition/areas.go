package partition

import (
	"math"

	"repro/internal/hypergraph"
)

// ClusterAreas returns the total module area in each cluster.
func ClusterAreas(h *hypergraph.Hypergraph, p *Partition) []float64 {
	a := make([]float64, p.K)
	for i, c := range p.Assign {
		a[c] += h.Area(i)
	}
	return a
}

// AreaScaledCost is the Scaled Cost objective with cluster sizes measured
// in area instead of module count: (1/(A·(k−1)))·Σ_h E_h/area(C_h), where
// A is the total area. For unit areas it equals ScaledCost.
func AreaScaledCost(h *hypergraph.Hypergraph, p *Partition) float64 {
	areas := ClusterAreas(h, p)
	e := NetClusterCutDegrees(h, p)
	var sum float64
	for c := 0; c < p.K; c++ {
		if areas[c] == 0 {
			return math.Inf(1)
		}
		sum += float64(e[c]) / areas[c]
	}
	return sum / (h.TotalArea() * float64(p.K-1))
}
