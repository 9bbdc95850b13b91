// Package trivec implements two-eigenvector tripartitioning after
// Richardson, Mucha and Porter (Phys. Rev. E 80, 036111, the
// "spectral23" scheme): each vertex is embedded in the plane at the
// coordinates of the second and third Laplacian eigenvectors, and the
// plane is divided into three 120° sectors around the origin; the
// sector orientation is grid-searched and scored by net cut. The
// original formulation maximizes modularity from the leading vectors of
// the modularity matrix; this adaptation minimizes net cut from the
// trailing non-trivial Laplacian vectors, which plays the same
// geometric role for the clique-model embedding.
package trivec

import (
	"fmt"
	"math"

	"repro/internal/eigen"
	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// angles is the rotation grid resolution over one 120° period.
const angles = 24

// Options configures Partition.
type Options struct {
	// Workers bounds the goroutines scanning the rotation grid
	// (0 = process default). The result is identical at every value.
	Workers int
}

// Partition splits h's modules into three clusters from the
// decomposition's second and third eigenvectors. dec must hold at least
// three eigenpairs of h's clique-model Laplacian. Every cluster is
// non-empty; the search is deterministic (fixed grid, index ties, one
// sign canonicalization per eigenvector).
func Partition(h *hypergraph.Hypergraph, dec *eigen.Decomposition, o Options) (*partition.Partition, error) {
	n := h.NumModules()
	if n < 3 {
		return nil, fmt.Errorf("trivec: need >= 3 modules for a tripartition, have %d", n)
	}
	if dec == nil || dec.D() < 3 {
		d := 0
		if dec != nil {
			d = dec.D()
		}
		return nil, fmt.Errorf("trivec: need 3 eigenpairs, have %d", d)
	}
	if dec.Vectors.Rows != n {
		return nil, fmt.Errorf("trivec: decomposition over %d vertices, hypergraph has %d modules", dec.Vectors.Rows, n)
	}
	x := dec.Vector(1)
	y := dec.Vector(2)
	canonSign(x)
	canonSign(y)

	// Each grid angle is scored independently; the slices are indexed
	// by angle so the scan shards without cross-worker state.
	cuts := make([]int, angles)
	parts := make([]*partition.Partition, angles)
	parallel.For(parallel.Workers(o.Workers), angles, 1, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			theta := 2 * math.Pi / 3 * float64(s) / float64(angles)
			p := sectorAssign(x, y, theta)
			repair(x, y, theta, p)
			parts[s] = partition.MustNew(p, 3)
			cuts[s] = partition.NetCut(h, parts[s])
		}
	})
	best := 0
	for s := 1; s < angles; s++ {
		if cuts[s] < cuts[best] {
			best = s
		}
	}
	return parts[best], nil
}

// anchor returns the unit vector of sector c's axis at rotation theta.
func anchor(theta float64, c int) (ax, ay float64) {
	a := theta + 2*math.Pi/3*float64(c)
	return math.Cos(a), math.Sin(a)
}

// sectorAssign maps each vertex to the sector axis with the largest
// projection of its (x, y) embedding; ties (including vertices at the
// origin) go to the smallest sector index.
func sectorAssign(x, y []float64, theta float64) []int {
	assign := make([]int, len(x))
	for i := range x {
		bestC, bestDot := 0, math.Inf(-1)
		for c := 0; c < 3; c++ {
			ax, ay := anchor(theta, c)
			if dot := x[i]*ax + y[i]*ay; dot > bestDot {
				bestDot = dot
				bestC = c
			}
		}
		assign[i] = bestC
	}
	return assign
}

// repair guarantees three non-empty clusters: an empty sector steals,
// from the largest cluster, the vertex projecting furthest toward the
// empty sector's axis. Deterministic: ties break to the smallest
// cluster/vertex index. With n >= 3 at most two steals are needed.
func repair(x, y []float64, theta float64, assign []int) {
	for {
		var sizes [3]int
		for _, c := range assign {
			sizes[c]++
		}
		empty := -1
		for c := 0; c < 3; c++ {
			if sizes[c] == 0 {
				empty = c
				break
			}
		}
		if empty < 0 {
			return
		}
		donor := 0
		for c := 1; c < 3; c++ {
			if sizes[c] > sizes[donor] {
				donor = c
			}
		}
		ax, ay := anchor(theta, empty)
		bestV, bestDot := -1, math.Inf(-1)
		for i, c := range assign {
			if c != donor {
				continue
			}
			if dot := x[i]*ax + y[i]*ay; dot > bestDot {
				bestDot = dot
				bestV = i
			}
		}
		assign[bestV] = empty
	}
}

// canonSign flips v in place so its first entry of magnitude > 1e-12 is
// positive.
func canonSign(v []float64) {
	for _, x := range v {
		if x > 1e-12 {
			return
		}
		if x < -1e-12 {
			for i := range v {
				v[i] = -v[i]
			}
			return
		}
	}
}
