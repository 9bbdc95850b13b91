package spectral

// This file exposes the extension systems built around the core
// reproduction: hierarchical clustering, spectral lower bounds, the
// Frankle–Karp probe bipartitioner, and the vector instance it shares
// with direct vector k-partitioning (Method VKP, the paper's closing
// research direction).

import (
	"context"

	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/probe"
	"repro/internal/resilience"
	"repro/internal/vecpart"
)

// ClusterTree is a hierarchical clustering of a netlist (see Cluster).
type ClusterTree = cluster.Node

// Cluster builds a hierarchical clustering of the netlist by recursive
// MELO bipartitioning, stopping at clusters of leafSize modules. Use
// (*ClusterTree).Flatten to extract a k-way partitioning and
// (*ClusterTree).Dendrogram to render the hierarchy.
func Cluster(h *Netlist, leafSize int) (*ClusterTree, error) {
	return cluster.Build(h, cluster.Options{LeafSize: leafSize, Model: graph.PartitioningSpecific})
}

// ProbeBipartition runs the Frankle–Karp probe-vector bipartitioner on
// the netlist's vector instance: probes directions in d-space, rounds
// each to the best-projecting bipartition, keeps the best.
func ProbeBipartition(h *Netlist, d, probes int, minFrac float64) (*Partitioning, error) {
	if d <= 0 {
		d = 10
	}
	if minFrac <= 0 {
		minFrac = 0.45
	}
	sp, _, err := decompose(context.TODO(), h, ModelPartitioningSpecific, d, nil, resilience.EigenPolicy{})
	if err != nil {
		return nil, err
	}
	v, err := vecpart.MaxSumInstance(sp.dec, d, sp.g.TotalDegree())
	if err != nil {
		return nil, err
	}
	res, err := probe.Bipartition(v, probe.Options{Probes: probes, MinFrac: minFrac})
	if err != nil {
		return nil, err
	}
	return res.Partition, nil
}

// CutLowerBound returns the Donath–Hoffman spectral lower bound on the
// paper's cut objective f(P_k) = Σ_h E_h over all partitionings of the
// netlist's clique-model graph with the given cluster sizes. Any
// heuristic solution's F value can be compared against it.
func CutLowerBound(h *Netlist, sizes []int) (float64, error) {
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		return 0, err
	}
	return bounds.DonathHoffman(g, sizes)
}
