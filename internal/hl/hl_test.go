package hl

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
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), d+1, resilience.EigenPolicy{MinD: d + 1})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Dec
}

func TestPartitionShapeAndBalance(t *testing.T) {
	g := graph.RandomConnected(64, 160, 3)
	for d := 1; d <= 3; d++ {
		dec := decompose(t, g, d)
		p, err := Partition(dec, d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		k := 1 << uint(d)
		if p.K != k {
			t.Fatalf("d=%d: K = %d, want %d", d, p.K, k)
		}
		min, max := p.MinMaxSize()
		if max-min > d+1 {
			t.Errorf("d=%d: sizes %v not balanced (median splits)", d, p.Sizes())
		}
	}
}

func TestGridQuarters(t *testing.T) {
	// On a grid, 2 eigenvectors split into 4 spatial quadrants: the cut
	// should be near the 2 center lines (16 edges for 8x8), far below a
	// random 4-way partitioning (~3/4 of 112 edges).
	g := graph.Grid(8, 8)
	dec := decompose(t, g, 2)
	p, err := Partition(dec, 2)
	if err != nil {
		t.Fatal(err)
	}
	cut := partition.CutWeight(g, p)
	if cut > 30 {
		t.Errorf("grid 4-way cut %v, want near 16", cut)
	}
}

func TestTwoClustersD1(t *testing.T) {
	g := graph.TwoClusters(16, 16, 2, 0.25, 5)
	dec := decompose(t, g, 1)
	p, err := Partition(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cut := partition.CutWeight(g, p); cut > 0.5+1e-9 {
		t.Errorf("cut %v, want the 2 planted bridges (0.5)", cut)
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(10)
	dec := decompose(t, g, 2)
	if _, err := Partition(dec, 0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := Partition(dec, 5); err == nil {
		t.Error("d beyond available pairs accepted")
	}
	if _, err := Partition(dec, 21); err == nil {
		t.Error("d=21 accepted")
	}
	small := decompose(t, graph.Path(3), 1)
	if _, err := Partition(small, 2); err == nil {
		t.Error("2^d > n accepted")
	}
}
