package barnes

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func TestRecoversTwoClusters(t *testing.T) {
	g := graph.TwoClusters(12, 12, 2, 0.2, 3)
	p, err := PartitionCtx(context.Background(), g, Options{K: 2, SignFlips: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	if sizes[0] != 12 || sizes[1] != 12 {
		t.Fatalf("sizes %v, want 12/12", sizes)
	}
	if cut := partition.CutWeight(g, p); cut > 0.4+1e-9 {
		t.Errorf("cut %v, want planted 0.4", cut)
	}
}

func TestThreeClusters(t *testing.T) {
	// Three 8-cliques weakly chained.
	var edges []graph.Edge
	for c := 0; c < 3; c++ {
		base := c * 8
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 7, V: 8, W: 0.05}, graph.Edge{U: 15, V: 16, W: 0.05})
	g := graph.MustNew(24, edges)
	p, err := PartitionCtx(context.Background(), g, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cut := partition.CutWeight(g, p); cut > 0.1+1e-9 {
		t.Errorf("cut %v, want the two 0.05 bridges", cut)
	}
	for c := 0; c < 3; c++ {
		first := p.Assign[c*8]
		for i := 1; i < 8; i++ {
			if p.Assign[c*8+i] != first {
				t.Fatalf("planted cluster %d split", c)
			}
		}
	}
}

func TestPrescribedSizes(t *testing.T) {
	g := graph.RandomConnected(20, 50, 7)
	p, err := PartitionCtx(context.Background(), g, Options{Sizes: []int{5, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Sizes()
	// The transportation demands pin the sizes exactly.
	got := map[int]int{}
	for _, v := range s {
		got[v]++
	}
	if got[5] != 1 || got[7] != 1 || got[8] != 1 {
		t.Errorf("sizes %v, want a permutation of 5/7/8", s)
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(6)
	if _, err := PartitionCtx(context.Background(), g, Options{K: 1}); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := PartitionCtx(context.Background(), g, Options{Sizes: []int{3, 2}}); err == nil {
		t.Error("sizes not summing to n accepted")
	}
	if _, err := PartitionCtx(context.Background(), g, Options{Sizes: []int{6, 0}}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := PartitionCtx(context.Background(), g, Options{K: 7}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestNearEqualSizes(t *testing.T) {
	s := nearEqualSizes(10, 3)
	if s[0]+s[1]+s[2] != 10 {
		t.Fatalf("sizes %v do not sum", s)
	}
	for _, v := range s {
		if v < 3 || v > 4 {
			t.Fatalf("sizes %v not near-equal", s)
		}
	}
}

func TestLargestAdjacencyEigenvectors(t *testing.T) {
	// For K_n the largest adjacency eigenvalue is n−1 with the constant
	// eigenvector.
	g := graph.Complete(8)
	u, err := largestAdjacencyEigenvectors(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All entries equal magnitude.
	first := u[0][0]
	for _, v := range u[0] {
		if diff := v - first; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("top eigenvector of K_n not constant: %v", u[0])
		}
	}
}
