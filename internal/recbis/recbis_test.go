package recbis

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/partest"
)

func TestPartitionCoversAllK(t *testing.T) {
	h := partest.RandomNetlist(30, 40, 4, 1)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := partest.FullDecomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 9; k++ {
		p, err := Partition(dec, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.K != k || p.N() != 30 {
			t.Fatalf("k=%d: got K=%d N=%d", k, p.K, p.N())
		}
		for c, s := range p.Sizes() {
			if s == 0 {
				t.Fatalf("k=%d: cluster %d empty", k, c)
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	h := partest.RandomNetlist(40, 60, 5, 7)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := partest.FullDecomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Partition(dec, 4)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		p, err := Partition(dec, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Assign, p.Assign) {
			t.Fatalf("run %d differs", run)
		}
	}
}

func TestPartitionSignInvariant(t *testing.T) {
	// Flipping an eigenvector's sign must not change the partition:
	// canonSign resolves the ±v ambiguity.
	h := partest.RandomNetlist(25, 30, 4, 3)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := partest.FullDecomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Partition(dec, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dec.Vectors.Rows; i++ {
		dec.Vectors.Set(i, 1, -dec.Vectors.At(i, 1))
	}
	flipped, err := Partition(dec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Assign, flipped.Assign) {
		t.Fatal("partition changed under an eigenvector sign flip")
	}
}

func TestPartitionKEqualsN(t *testing.T) {
	h := partest.RandomNetlist(8, 6, 3, 2)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := partest.FullDecomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(dec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range p.Sizes() {
		if s != 1 {
			t.Fatalf("cluster %d has %d vertices, want 1", c, s)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	h := partest.RandomNetlist(6, 4, 3, 2)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := partest.FullDecomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(dec, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Partition(dec, 7); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := Partition(nil, 2); err == nil {
		t.Fatal("nil decomposition accepted")
	}
}
