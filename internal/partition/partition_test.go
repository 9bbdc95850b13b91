package partition

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hypergraph"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := New([]int{0, 2}, 2); err == nil {
		t.Error("out-of-range cluster accepted")
	}
	if _, err := New([]int{0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestNewCopiesAssign(t *testing.T) {
	a := []int{0, 1, 0}
	p, _ := New(a, 2)
	a[0] = 1
	if p.Assign[0] != 0 {
		t.Error("New must copy the assignment")
	}
}

func TestSizesClusters(t *testing.T) {
	p := MustNew([]int{0, 1, 0, 2, 1}, 3)
	s := p.Sizes()
	if s[0] != 2 || s[1] != 2 || s[2] != 1 {
		t.Fatalf("Sizes = %v", s)
	}
	c1 := p.Cluster(1)
	if len(c1) != 2 || c1[0] != 1 || c1[1] != 4 {
		t.Fatalf("Cluster(1) = %v", c1)
	}
	cs := p.Clusters()
	if len(cs) != 3 || len(cs[2]) != 1 || cs[2][0] != 3 {
		t.Fatalf("Clusters = %v", cs)
	}
	min, max := p.MinMaxSize()
	if min != 1 || max != 2 {
		t.Errorf("MinMax = %d,%d", min, max)
	}
	if !p.IsBalanced(1, 2) || p.IsBalanced(2, 2) {
		t.Error("IsBalanced wrong")
	}
}

func TestCanonical(t *testing.T) {
	p1 := MustNew([]int{1, 0, 1, 0}, 2).Canonical()
	p2 := MustNew([]int{0, 1, 0, 1}, 2).Canonical()
	for i := range p1.Assign {
		if p1.Assign[i] != p2.Assign[i] {
			t.Fatal("canonical forms differ for label-swapped partitions")
		}
	}
}

func TestFromOrderSplit(t *testing.T) {
	order := []int{3, 1, 0, 2}
	p, err := FromOrderSplit(order, []int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// order[0:2] = {3,1} -> cluster 0; {0,2} -> cluster 1.
	want := []int{1, 0, 1, 0}
	for i := range want {
		if p.Assign[i] != want[i] {
			t.Fatalf("Assign = %v, want %v", p.Assign, want)
		}
	}
	// Three-way.
	p3, err := FromOrderSplit(order, []int{1, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Assign[3] != 0 || p3.Assign[1] != 1 || p3.Assign[0] != 1 || p3.Assign[2] != 2 {
		t.Fatalf("3-way Assign = %v", p3.Assign)
	}
	// Errors.
	if _, err := FromOrderSplit(order, []int{0}, 2); err == nil {
		t.Error("split at 0 accepted")
	}
	if _, err := FromOrderSplit(order, []int{4}, 2); err == nil {
		t.Error("split at n accepted")
	}
	if _, err := FromOrderSplit(order, []int{2, 1}, 3); err == nil {
		t.Error("unsorted splits accepted")
	}
	if _, err := FromOrderSplit([]int{0, 0, 1, 2}, []int{2}, 2); err == nil {
		t.Error("non-permutation ordering accepted")
	}
	if _, err := FromOrderSplit(order, []int{1, 2, 3}, 3); err == nil {
		t.Error("wrong split count accepted")
	}
}

func TestCutWeightAndF(t *testing.T) {
	// Path 0-1-2-3 cut between 1 and 2.
	g := graph.Path(4)
	p := MustNew([]int{0, 0, 1, 1}, 2)
	if got := CutWeight(g, p); got != 1 {
		t.Errorf("CutWeight = %v, want 1", got)
	}
	if got := F(g, p); got != 2 {
		t.Errorf("F = %v, want 2", got)
	}
}

func TestFMatchesTraceFormula(t *testing.T) {
	// Theorem 1: f(P_k) = trace(Xᵀ Q X).
	g := graph.RandomConnected(14, 25, 5)
	q := g.LaplacianDense()
	partitions := [][]int{
		{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1},
		{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1},
		{0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 3, 0, 1},
	}
	ks := []int{2, 3, 4}
	for ci, assign := range partitions {
		k := ks[ci]
		p := MustNew(assign, k)
		// Build X: n×k assignment matrix.
		n := g.N()
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, k)
			x[i][assign[i]] = 1
		}
		// trace(XᵀQX) = Σ_h x_hᵀ Q x_h.
		var tr float64
		col := make([]float64, n)
		qc := make([]float64, n)
		for h := 0; h < k; h++ {
			for i := 0; i < n; i++ {
				col[i] = x[i][h]
			}
			q.MatVec(col, qc)
			for i := 0; i < n; i++ {
				tr += col[i] * qc[i]
			}
		}
		if f := F(g, p); math.Abs(f-tr) > 1e-9 {
			t.Errorf("case %d: f = %v but trace = %v", ci, f, tr)
		}
	}
}

func netlist(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.AddModules(6)
	_ = b.AddNet("", 0, 1, 2)
	_ = b.AddNet("", 2, 3)
	_ = b.AddNet("", 3, 4, 5)
	_ = b.AddNet("", 0, 5)
	return b.Build()
}

func TestNetCut(t *testing.T) {
	h := netlist(t)
	p := MustNew([]int{0, 0, 0, 1, 1, 1}, 2)
	// Cut nets: {2,3} and {0,5} -> 2.
	if got := NetCut(h, p); got != 2 {
		t.Errorf("NetCut = %d, want 2", got)
	}
	pAll := MustNew([]int{0, 0, 0, 0, 0, 0}, 1)
	if got := NetCut(h, pAll); got != 0 {
		t.Errorf("NetCut all-in-one = %d, want 0", got)
	}
}

func TestNetClusterCutDegrees(t *testing.T) {
	h := netlist(t)
	p := MustNew([]int{0, 0, 0, 1, 1, 1}, 2)
	e := NetClusterCutDegrees(h, p)
	// Both cut nets touch both clusters.
	if e[0] != 2 || e[1] != 2 {
		t.Errorf("NetClusterCutDegrees = %v", e)
	}
}

func TestScaledCostReducesToRatioCutForK2(t *testing.T) {
	h := netlist(t)
	p := MustNew([]int{0, 0, 1, 1, 1, 0}, 2)
	sc := ScaledCost(h, p)
	rc := RatioCut(h, p)
	if math.Abs(sc-rc) > 1e-12 {
		t.Errorf("ScaledCost %v != RatioCut %v for k=2", sc, rc)
	}
}

func TestScaledCostEmptyClusterIsInf(t *testing.T) {
	h := netlist(t)
	p := MustNew([]int{0, 0, 0, 0, 0, 0}, 2)
	if !math.IsInf(ScaledCost(h, p), 1) {
		t.Error("empty cluster should give +Inf scaled cost")
	}
	if !math.IsInf(RatioCut(h, p), 1) {
		t.Error("empty cluster should give +Inf ratio cut")
	}
}

func TestGraphRatioCut(t *testing.T) {
	g := graph.Path(4)
	p := MustNew([]int{0, 0, 1, 1}, 2)
	// cut = 1, sizes 2/2: ratio cut 0.25.
	if got := GraphRatioCut(g, p); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("GraphRatioCut = %v", got)
	}
	empty := MustNew([]int{0, 0, 0, 0}, 2)
	if !math.IsInf(GraphRatioCut(g, empty), 1) {
		t.Error("empty cluster should be +Inf")
	}
}

func TestRatioCutPanicsOnNon2Way(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RatioCut(netlist(t), MustNew([]int{0, 1, 2, 0, 1, 2}, 3))
}
