package kp

import (
	"context"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/resilience"
)

func decompose(t *testing.T, g *graph.Graph, d int) *eigen.Decomposition {
	t.Helper()
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), d, resilience.EigenPolicy{MinD: d})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Dec
}

// threeClusters returns a graph of three dense clusters weakly joined.
func threeClusters(size int) *graph.Graph {
	var edges []graph.Edge
	for c := 0; c < 3; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	edges = append(edges,
		graph.Edge{U: size - 1, V: size, W: 0.05},
		graph.Edge{U: 2*size - 1, V: 2 * size, W: 0.05},
	)
	return graph.MustNew(3*size, edges)
}

func TestKPRecoversThreeClusters(t *testing.T) {
	size := 8
	g := threeClusters(size)
	dec := decompose(t, g, 3)
	p, err := Partition(dec, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Each planted cluster must map to one output cluster, and the three
	// output clusters must be distinct.
	labels := make([]int, 3)
	for c := 0; c < 3; c++ {
		labels[c] = p.Assign[c*size]
		for i := 1; i < size; i++ {
			if p.Assign[c*size+i] != labels[c] {
				t.Fatalf("planted cluster %d split: %v", c, p.Assign)
			}
		}
	}
	if labels[0] == labels[1] || labels[1] == labels[2] || labels[0] == labels[2] {
		t.Errorf("clusters merged: labels %v", labels)
	}
	if cut := partition.CutWeight(g, p); cut > 0.11 {
		t.Errorf("cut weight %v, want only the two weak bridges (0.1)", cut)
	}
}

func TestKPMinSizeRepair(t *testing.T) {
	g := graph.RandomConnected(30, 90, 4)
	dec := decompose(t, g, 4)
	p, err := Partition(dec, Options{K: 4, MinSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range p.Sizes() {
		if s < 3 {
			t.Errorf("cluster %d has %d < 3 vertices", c, s)
		}
	}
}

func TestKPValidation(t *testing.T) {
	g := graph.Path(10)
	dec := decompose(t, g, 3)
	if _, err := Partition(dec, Options{K: 1}); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := Partition(dec, Options{K: 5}); err == nil {
		t.Error("k > available pairs accepted")
	}
	if _, err := Partition(dec, Options{K: 3, MinSize: 5}); err == nil {
		t.Error("infeasible MinSize accepted")
	}
}

func TestKPNonEmptyClusters(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.RandomConnected(40, 100, seed)
		for _, k := range []int{2, 3, 5} {
			dec := decompose(t, g, k)
			p, err := Partition(dec, Options{K: k})
			if err != nil {
				t.Fatalf("seed %d k=%d: %v", seed, k, err)
			}
			for c, s := range p.Sizes() {
				if s == 0 {
					t.Errorf("seed %d k=%d: cluster %d empty", seed, k, c)
				}
			}
		}
	}
}

// TestPartitionAreaFloor: on a heterogeneous-area netlist a count-
// balanced KP cluster can hold almost none of the area. With Areas and
// MinArea set, the repair pass must bring every cluster up to the area
// floor (the oracle harness held KP to the restricted-partitioning
// floor A/(2k) and caught the count-only accounting).
func TestPartitionAreaFloor(t *testing.T) {
	size := 6
	g := threeClusters(size)
	n := 3 * size
	dec := decompose(t, g, 3)
	// One cluster carries tiny modules: its natural cosine assignment is
	// count-fine but area-starved.
	areas := make([]float64, n)
	total := 0.0
	for i := range areas {
		areas[i] = 1
		if i >= 2*size {
			areas[i] = 0.05
		}
		total += areas[i]
	}
	floor := total / 6 // A/(2k), k = 3
	p, err := Partition(dec, Options{K: 3, MinSize: 1, Areas: areas, MinArea: floor})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, 3)
	for i, c := range p.Assign {
		sums[c] += areas[i]
	}
	for c, s := range sums {
		if s < floor-1e-9 {
			t.Errorf("cluster %d area %g below floor %g (sums %v)", c, s, floor, sums)
		}
	}
}

// TestPartitionAreaValidation covers the new option's error paths.
func TestPartitionAreaValidation(t *testing.T) {
	g := threeClusters(4)
	dec := decompose(t, g, 2)
	if _, err := Partition(dec, Options{K: 2, MinArea: 1}); err == nil {
		t.Error("MinArea without Areas accepted")
	}
	bad := make([]float64, g.N())
	for i := range bad {
		bad[i] = 1
	}
	bad[0] = -1
	if _, err := Partition(dec, Options{K: 2, Areas: bad, MinArea: 1}); err == nil {
		t.Error("negative area accepted")
	}
	ok := make([]float64, g.N())
	for i := range ok {
		ok[i] = 1
	}
	if _, err := Partition(dec, Options{K: 2, Areas: ok, MinArea: 100}); err == nil {
		t.Error("infeasible MinArea accepted")
	}
}
