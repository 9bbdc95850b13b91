package graph

import (
	"math"
	"testing"

	"repro/internal/hypergraph"
)

func TestNewMergesParallelEdges(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1, 1}, {1, 0, 2}, {1, 2, 1}})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.Weight(0, 1) != 3 || g.Weight(1, 0) != 3 {
		t.Errorf("merged weight = %v, want 3", g.Weight(0, 1))
	}
	if g.Degree(1) != 4 {
		t.Errorf("Degree(1) = %v, want 4", g.Degree(1))
	}
	if g.TotalDegree() != 8 {
		t.Errorf("TotalDegree = %v, want 8", g.TotalDegree())
	}
}

func TestNewRejectsBadEdges(t *testing.T) {
	if _, err := New(2, []Edge{{0, 0, 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := New(2, []Edge{{0, 5, 1}}); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := New(2, []Edge{{0, 1, 0}}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := New(2, []Edge{{0, 1, -2}}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestEdgesAndWeight(t *testing.T) {
	g := Path(4)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges = %v", es)
	}
	for i, e := range es {
		if e.U != i || e.V != i+1 || e.W != 1 {
			t.Fatalf("edge %d = %+v", i, e)
		}
	}
	if g.Weight(0, 3) != 0 {
		t.Error("absent edge should weigh 0")
	}
}

func TestConnectivityAndComponents(t *testing.T) {
	if !Path(6).IsConnected() {
		t.Error("path should be connected")
	}
	g := MustNew(5, []Edge{{0, 1, 1}, {2, 3, 1}})
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 { // {0,1}, {2,3}, {4}
		t.Fatalf("Components = %v", comps)
	}
}

func TestLaplacianProperties(t *testing.T) {
	g := RandomConnected(40, 60, 9)
	q := g.Laplacian()
	// Row sums of a Laplacian are zero.
	ones := make([]float64, g.N())
	for i := range ones {
		ones[i] = 1
	}
	out := make([]float64, g.N())
	q.MatVec(ones, out)
	for i, v := range out {
		if math.Abs(v) > 1e-10 {
			t.Fatalf("Laplacian row %d sums to %v", i, v)
		}
	}
	// trace(Q) equals the total degree.
	var tr float64
	for i := 0; i < g.N(); i++ {
		tr += q.At(i, i)
	}
	if math.Abs(tr-g.TotalDegree()) > 1e-10 {
		t.Errorf("trace %v vs total degree %v", tr, g.TotalDegree())
	}
	// Dense and sparse must agree.
	dq := g.LaplacianDense()
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if math.Abs(dq.At(i, j)-q.At(i, j)) > 1e-12 {
				t.Fatalf("dense/sparse Laplacian disagree at (%d,%d)", i, j)
			}
		}
	}
	// Q = D − A.
	a := g.Adjacency()
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			want := -a.At(i, j)
			if i == j {
				want = g.Degree(i)
			}
			if math.Abs(q.At(i, j)-want) > 1e-12 {
				t.Fatalf("Q != D-A at (%d,%d)", i, j)
			}
		}
	}
}

func TestInduceSubgraph(t *testing.T) {
	g := Grid(3, 3)
	sub, back := g.Induce([]int{0, 1, 3, 4})
	if sub.N() != 4 {
		t.Fatal("wrong size")
	}
	// The induced 2x2 corner has 4 edges.
	if sub.NumEdges() != 4 {
		t.Errorf("induced edges = %d, want 4", sub.NumEdges())
	}
	if back[0] != 0 || back[3] != 4 {
		t.Error("back map wrong")
	}
}

func TestGenerators(t *testing.T) {
	if g := Cycle(5); g.NumEdges() != 5 || !g.IsConnected() {
		t.Error("Cycle wrong")
	}
	if g := Complete(6); g.NumEdges() != 15 {
		t.Error("Complete wrong")
	}
	if g := Star(7); g.NumEdges() != 6 || g.Degree(0) != 6 {
		t.Error("Star wrong")
	}
	if g := Grid(4, 5); g.N() != 20 || g.NumEdges() != 4*4+3*5 {
		t.Error("Grid wrong")
	}
	if g := RandomConnected(50, 30, 1); !g.IsConnected() || g.N() != 50 {
		t.Error("RandomConnected wrong")
	}
	if g := TwoClusters(10, 12, 3, 0.5, 2); g.N() != 22 || !g.IsConnected() {
		t.Error("TwoClusters wrong")
	}
}

func TestCliqueModelCosts(t *testing.T) {
	// Standard: 1/(p-1).
	if got := Standard.EdgeCost(2); got != 1 {
		t.Errorf("standard p=2: %v", got)
	}
	if got := Standard.EdgeCost(5); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("standard p=5: %v", got)
	}
	// Frankle: (2/p)^1.5.
	if got := Frankle.EdgeCost(2); math.Abs(got-1) > 1e-15 {
		t.Errorf("frankle p=2: %v", got)
	}
	if got := Frankle.EdgeCost(8); math.Abs(got-math.Pow(0.25, 1.5)) > 1e-15 {
		t.Errorf("frankle p=8: %v", got)
	}
	// Partitioning-specific: p=2 gives 4(4-2)/(2·1·4) = 1.
	if got := PartitioningSpecific.EdgeCost(2); math.Abs(got-1) > 1e-15 {
		t.Errorf("partitioning-specific p=2: %v", got)
	}
	// Large-net limit must not overflow or go negative.
	if got := PartitioningSpecific.EdgeCost(200); got <= 0 || math.IsNaN(got) {
		t.Errorf("partitioning-specific p=200: %v", got)
	}
}

func TestPartitioningSpecificExpectedCutCostIsOne(t *testing.T) {
	// The defining property: expected cost of a cut hyperedge is 1.
	for p := 2; p <= 30; p++ {
		got := ExpectedCutCost(PartitioningSpecific, p)
		if math.Abs(got-1) > 1e-12 {
			t.Errorf("p=%d: expected cut cost %v, want 1", p, got)
		}
	}
}

func TestCliqueModelString(t *testing.T) {
	if Standard.String() != "standard" ||
		PartitioningSpecific.String() != "partitioning-specific" ||
		Frankle.String() != "frankle" {
		t.Error("String() names wrong")
	}
	if CliqueModel(9).String() == "" {
		t.Error("unknown model should still format")
	}
}

func TestFromHypergraph(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddModules(4)
	_ = b.AddNet("n0", 0, 1, 2) // 3-clique, weight 1/2 each (standard)
	_ = b.AddNet("n1", 2, 3)    // single edge, weight 1
	h := b.Build()

	g, err := FromHypergraph(h, Standard)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if math.Abs(g.Weight(0, 1)-0.5) > 1e-15 {
		t.Errorf("clique edge weight %v, want 0.5", g.Weight(0, 1))
	}
	if math.Abs(g.Weight(2, 3)-1) > 1e-15 {
		t.Errorf("2-pin net weight %v, want 1", g.Weight(2, 3))
	}

	// Overlapping nets merge weights: add n2 = {0,1}.
	b2 := hypergraph.NewBuilder()
	b2.AddModules(3)
	_ = b2.AddNet("a", 0, 1, 2)
	_ = b2.AddNet("b", 0, 1)
	g3, err := FromHypergraph(b2.Build(), Standard)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g3.Weight(0, 1)-1.5) > 1e-15 {
		t.Errorf("merged weight %v, want 1.5", g3.Weight(0, 1))
	}
}
