package melo

import (
	"context"
	"testing"

	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/resilience"
)

func TestCandidateWindowIsPermutation(t *testing.T) {
	g := graph.RandomConnected(120, 300, 3)
	dec := decompose(t, g, 6)
	opts := NewOptions()
	opts.D = 6
	opts.CandidateWindow = 16
	opts.RecomputeEvery = 20
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !isPermutation(res.Order, g.N()) {
		t.Fatal("windowed ordering is not a permutation")
	}
}

func TestCandidateWindowQualityClose(t *testing.T) {
	// The windowed variant trades a little quality for speed; on a
	// clustered instance its balanced cut should stay within 2x of the
	// exact greedy (usually identical).
	g := graph.TwoClusters(30, 30, 3, 0.25, 7)
	dec := decompose(t, g, 5)

	exact := NewOptions()
	exact.D = 5
	resExact, err := Order(g, dec, exact)
	if err != nil {
		t.Fatal(err)
	}
	windowed := exact
	windowed.CandidateWindow = 10
	windowed.RecomputeEvery = 15
	resWin, err := Order(g, dec, windowed)
	if err != nil {
		t.Fatal(err)
	}

	se, err := dprp.BestBalancedSplitGraph(g, resExact.Order, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := dprp.BestBalancedSplitGraph(g, resWin.Order, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cut > 2*se.Cut+1e-9 {
		t.Errorf("windowed cut %v much worse than exact %v", sw.Cut, se.Cut)
	}
	t.Logf("exact cut %v, windowed cut %v", se.Cut, sw.Cut)
}

func TestCandidateWindowTinyWindow(t *testing.T) {
	// Degenerate window of 1 must still produce a valid permutation
	// (falls back to re-ranking whenever the window empties).
	g := graph.RandomConnected(40, 90, 9)
	dec := decompose(t, g, 3)
	opts := NewOptions()
	opts.D = 3
	opts.CandidateWindow = 1
	opts.RecomputeEvery = 7
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !isPermutation(res.Order, g.N()) {
		t.Fatal("window=1 ordering is not a permutation")
	}
}

func BenchmarkCandidateWindow(b *testing.B) {
	g := graph.RandomConnected(800, 2400, 5)
	dec, err := decomposeB(g, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		opts := NewOptions()
		for i := 0; i < b.N; i++ {
			if _, err := Order(g, dec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("window64", func(b *testing.B) {
		opts := NewOptions()
		opts.CandidateWindow = 64
		for i := 0; i < b.N; i++ {
			if _, err := Order(g, dec, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func decomposeB(g *graph.Graph, d int) (*eigen.Decomposition, error) {
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), d+1, resilience.EigenPolicy{MinD: d + 1})
	if err != nil {
		return nil, err
	}
	return sol.Dec, nil
}
