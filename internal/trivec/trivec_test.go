package trivec

import (
	"reflect"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/partest"
	"repro/internal/partition"
)

func fullDec(t *testing.T, h *hypergraph.Hypergraph) *eigen.Decomposition {
	t.Helper()
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := partest.FullDecomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestPartitionBasic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h := partest.RandomNetlist(24, 36, 4, seed)
		p, err := Partition(h, fullDec(t, h), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.K != 3 || p.N() != h.NumModules() {
			t.Fatalf("seed %d: K=%d N=%d", seed, p.K, p.N())
		}
		for c, s := range p.Sizes() {
			if s == 0 {
				t.Fatalf("seed %d: cluster %d empty", seed, c)
			}
		}
	}
}

func TestPartitionFindsPlantedTriangle(t *testing.T) {
	// Three dense 6-module groups joined by three bridge nets: the
	// embedding separates the groups, so the sector search should cut
	// only (about) the bridges.
	b := hypergraph.NewBuilder()
	b.AddModules(18)
	for gI := 0; gI < 3; gI++ {
		base := gI * 6
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				if err := b.AddNet("", base+i, base+j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for gI := 0; gI < 3; gI++ {
		if err := b.AddNet("", gI*6, ((gI+1)%3)*6); err != nil {
			t.Fatal(err)
		}
	}
	h := b.Build()
	p, err := Partition(h, fullDec(t, h), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cut := partition.NetCut(h, p); cut > 3 {
		t.Fatalf("cut %d on the planted 3-community instance, want <= 3", cut)
	}
	sizes := p.Sizes()
	for c, s := range sizes {
		if s != 6 {
			t.Fatalf("cluster %d has %d modules, want 6 (sizes %v)", c, s, sizes)
		}
	}
}

func TestPartitionWorkerInvariant(t *testing.T) {
	h := partest.RandomNetlist(30, 50, 5, 4)
	dec := fullDec(t, h)
	base, err := Partition(h, dec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		p, err := Partition(h, dec, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Assign, p.Assign) {
			t.Fatalf("partition differs at workers=%d", w)
		}
	}
}

func TestPartitionSignInvariant(t *testing.T) {
	h := partest.RandomNetlist(20, 30, 4, 6)
	dec := fullDec(t, h)
	base, err := Partition(h, dec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 2; j++ {
		for i := 0; i < dec.Vectors.Rows; i++ {
			dec.Vectors.Set(i, j, -dec.Vectors.At(i, j))
		}
	}
	flipped, err := Partition(h, dec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Assign, flipped.Assign) {
		t.Fatal("partition changed under eigenvector sign flips")
	}
}

func TestPartitionTinyAndValidation(t *testing.T) {
	h := partest.RandomNetlist(3, 2, 3, 1)
	p, err := Partition(h, fullDec(t, h), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range p.Sizes() {
		if s != 1 {
			t.Fatalf("cluster %d has %d modules on n=3", c, s)
		}
	}
	h2 := partest.RandomNetlist(2, 1, 2, 1)
	if _, err := Partition(h2, fullDec(t, h2), Options{}); err == nil {
		t.Fatal("n=2 accepted for a tripartition")
	}
	if _, err := Partition(h, nil, Options{}); err == nil {
		t.Fatal("nil decomposition accepted")
	}
}
