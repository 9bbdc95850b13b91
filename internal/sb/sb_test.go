package sb

import (
	"context"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/resilience"
)

func decompose(t *testing.T, g *graph.Graph) *eigen.Decomposition {
	t.Helper()
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), 2, resilience.EigenPolicy{MinD: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Dec
}

// pathNetlist builds the hypergraph whose clique expansion is the path.
func pathNetlist(t *testing.T, n int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.AddModules(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddNet("", i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestFiedlerOrderOnPath(t *testing.T) {
	// The path's Fiedler vector is monotone along the path, so the order
	// must be the path order or its reverse.
	n := 16
	g := graph.Path(n)
	order, err := FiedlerOrder(g, decompose(t, g))
	if err != nil {
		t.Fatal(err)
	}
	forward, backward := true, true
	for i, v := range order {
		if v != i {
			forward = false
		}
		if v != n-1-i {
			backward = false
		}
	}
	if !forward && !backward {
		t.Errorf("Fiedler order of path = %v", order)
	}
}

func TestBipartitionPath(t *testing.T) {
	n := 12
	h := pathNetlist(t, n)
	g, err := graph.FromHypergraph(h, graph.Standard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bipartition(h, g, decompose(t, g), 0.45)
	if err != nil {
		t.Fatal(err)
	}
	// The optimal balanced cut of a path is a single net.
	if res.Cut != 1 {
		t.Errorf("cut = %v, want 1", res.Cut)
	}
	if !res.Partition.IsBalanced(5, 7) {
		t.Errorf("sizes = %v violate 45%% balance", res.Partition.Sizes())
	}
}

func TestRatioCutBipartitionTwoClusters(t *testing.T) {
	// Netlist with two cliques of 5 joined by one net.
	b := hypergraph.NewBuilder()
	b.AddModules(10)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			_ = b.AddNet("", i, j)
			_ = b.AddNet("", 5+i, 5+j)
		}
	}
	_ = b.AddNet("bridge", 4, 5)
	h := b.Build()
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RatioCutBipartition(h, g, decompose(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if got := partition.NetCut(h, res.Partition); got != 1 {
		t.Errorf("net cut = %d, want 1 (the bridge)", got)
	}
	sizes := res.Partition.Sizes()
	if sizes[0] != 5 || sizes[1] != 5 {
		t.Errorf("sizes = %v, want 5/5", sizes)
	}
}

func TestFiedlerOrderValidation(t *testing.T) {
	g := graph.Path(6)
	dec := decompose(t, g)
	one, err := dec.Truncate(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FiedlerOrder(g, one); err == nil {
		t.Error("single-pair decomposition accepted")
	}
	other := graph.Path(7)
	if _, err := FiedlerOrder(other, dec); err == nil {
		t.Error("size mismatch accepted")
	}
}

// negatedFiedler returns a copy of dec with the Fiedler column negated —
// an equally valid eigendecomposition, since eigenvector signs are
// arbitrary.
func negatedFiedler(dec *eigen.Decomposition) *eigen.Decomposition {
	n, d := dec.Vectors.Rows, dec.D()
	vecs := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x := dec.Vectors.At(i, j)
			if j == 1 {
				x = -x
			}
			vecs.Set(i, j, x)
		}
	}
	vals := make([]float64, d)
	copy(vals, dec.Values)
	return &eigen.Decomposition{Values: vals, Vectors: vecs}
}

// TestFiedlerOrderSignInvariant: v and −v are both Fiedler vectors, so
// the ordering must not depend on which one the eigensolver returns.
// The degenerate-λ₂ graphs (even cycle, star, disconnected twins) are
// exactly where SB/RSB used to flip between mirror-image splits.
func TestFiedlerOrderSignInvariant(t *testing.T) {
	twins := func() *graph.Graph {
		var edges []graph.Edge
		for i := 0; i < 4; i++ {
			edges = append(edges,
				graph.Edge{U: i, V: (i + 1) % 4, W: 1},
				graph.Edge{U: 4 + i, V: 4 + (i+1)%4, W: 1})
		}
		return graph.MustNew(8, edges)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle4", graph.Cycle(4)},
		{"star6", graph.Star(6)},
		{"twins", twins()},
		{"path9", graph.Path(9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := eigen.SymEig(tc.g.LaplacianDense())
			if err != nil {
				t.Fatal(err)
			}
			order, err := FiedlerOrder(tc.g, dec)
			if err != nil {
				t.Fatal(err)
			}
			flipped, err := FiedlerOrder(tc.g, negatedFiedler(dec))
			if err != nil {
				t.Fatal(err)
			}
			for i := range order {
				if order[i] != flipped[i] {
					t.Fatalf("sign flip changed the ordering:\n  +v: %v\n  -v: %v", order, flipped)
				}
			}
		})
	}
}

// TestBipartitionSignInvariant: the end-to-end SB split must be the same
// bipartition for either eigenvector sign.
func TestBipartitionSignInvariant(t *testing.T) {
	h := pathNetlist(t, 9)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := eigen.SymEig(g.LaplacianDense())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Bipartition(h, g, dec, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bipartition(h, g, negatedFiedler(dec), 0.45)
	if err != nil {
		t.Fatal(err)
	}
	swap := a.Partition.Assign[0] != b.Partition.Assign[0]
	for i, c := range b.Partition.Assign {
		if swap {
			c = 1 - c
		}
		if c != a.Partition.Assign[i] {
			t.Fatalf("sign flip changed the split: %v vs %v", a.Partition.Assign, b.Partition.Assign)
		}
	}
}
