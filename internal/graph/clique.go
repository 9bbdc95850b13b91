package graph

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
)

// CliqueModel selects the edge-cost function used when a net of |e|
// modules is expanded into a clique of |e|(|e|−1)/2 graph edges. No
// "perfect" clique model exists (Ihler et al. [31]); the paper uses three:
//
//   - Standard: cost 1/(|e|−1) per clique edge, motivated by linear
//     placement into fixed locations at unit separation [11][32].
//   - PartitioningSpecific: cost 4(2^|e|−2)/(|e|(|e|−1)·2^|e|) per clique
//     edge, so that the expected total cost of a cut hyperedge — over
//     uniformly random bipartitions, conditioned on the net being cut —
//     equals one. This is the model used for the paper's main experiments.
//   - Frankle: cost (2/|e|)^{3/2} per clique edge, proposed in [19] for
//     linear placement with a quadratic objective; the paper uses it for
//     the KP baseline.
type CliqueModel int

const (
	Standard CliqueModel = iota
	PartitioningSpecific
	Frankle
)

// String returns the model name as used in the paper.
func (m CliqueModel) String() string {
	switch m {
	case Standard:
		return "standard"
	case PartitioningSpecific:
		return "partitioning-specific"
	case Frankle:
		return "frankle"
	default:
		return fmt.Sprintf("CliqueModel(%d)", int(m))
	}
}

// EdgeCost returns the per-clique-edge cost this model assigns for a net
// with size modules. size must be >= 2.
func (m CliqueModel) EdgeCost(size int) float64 {
	p := float64(size)
	switch m {
	case Standard:
		return 1 / (p - 1)
	case PartitioningSpecific:
		// 4(2^p − 2) / (p(p−1)·2^p) — the reciprocal of the expected
		// number of cut clique edges given that the net is cut. For large
		// nets 2^p overflows float64 gracefully: the ratio tends to
		// 4/(p(p−1)), which we use directly past the overflow point.
		if size >= 60 {
			return 4 / (p * (p - 1))
		}
		pow := math.Exp2(p)
		return 4 * (pow - 2) / (p * (p - 1) * pow)
	case Frankle:
		return math.Pow(2/p, 1.5)
	default:
		panic(fmt.Sprintf("graph: unknown clique model %d", int(m)))
	}
}

// FromHypergraph converts a netlist to a weighted graph by expanding every
// net into a clique under the given cost model.
func FromHypergraph(h *hypergraph.Hypergraph, model CliqueModel) (*Graph, error) {
	var edges []Edge
	for _, net := range h.Nets {
		w := model.EdgeCost(len(net))
		for i := 0; i < len(net); i++ {
			for j := i + 1; j < len(net); j++ {
				edges = append(edges, Edge{U: net[i], V: net[j], W: w})
			}
		}
	}
	return New(h.NumModules(), edges)
}

// ExpectedCutCost returns the expected total clique-edge cost of a net of
// the given size under a uniformly random bipartition conditioned on the
// net being cut. For the PartitioningSpecific model this is 1 by design.
// Exposed for tests and documentation.
func ExpectedCutCost(model CliqueModel, size int) float64 {
	p := float64(size)
	// E[i(p−i)] over i ~ Binomial(p, 1/2) is p(p−1)/4; conditioning on a
	// cut divides by P(cut) = (2^p − 2)/2^p.
	pow := math.Exp2(p)
	expCutEdges := (p * (p - 1) / 4) * pow / (pow - 2)
	return expCutEdges * model.EdgeCost(size)
}
