package spectral

// This file exposes the extension systems built around the core
// reproduction: hierarchical clustering, spectral lower bounds, the
// Frankle–Karp probe bipartitioner, and the vector instance it shares
// with direct vector k-partitioning (Method VKP, the paper's closing
// research direction).

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
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

// vectorInstance builds the paper's max-sum vector instance from up to d
// non-trivial eigenvectors: the trivial one is skipped and the rest are
// scaled with the truncation-balanced H.
func vectorInstance(g *graph.Graph, dec *eigen.Decomposition, d int) (*vecpart.Vectors, error) {
	used := min(d, dec.D()-1)
	if used < 1 {
		return nil, fmt.Errorf("spectral: netlist too small for vector partitioning")
	}
	trimmed := trimTrivial(dec, used)
	H := vecpart.ChooseH(g.TotalDegree(), append([]float64{0}, trimmed.Values...), g.N())
	return vecpart.FromDecomposition(trimmed, used, vecpart.MaxSum, H)
}

// trimTrivial drops the first (constant) eigenpair and keeps d pairs.
func trimTrivial(dec *eigen.Decomposition, d int) *eigen.Decomposition {
	n := dec.Vectors.Rows
	trimmed := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			trimmed.Set(i, j, dec.Vectors.At(i, j+1))
		}
	}
	return &eigen.Decomposition{
		Values:  append([]float64(nil), dec.Values[1:d+1]...),
		Vectors: trimmed,
	}
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
	v, err := vectorInstance(sp.g, sp.dec, d)
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
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific, 0)
	if err != nil {
		return 0, err
	}
	return bounds.DonathHoffman(g, sizes)
}
