package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/linalg"
)

// TestQuickLaplacianPSD: the Laplacian of any random graph is positive
// semidefinite — every Rayleigh quotient is >= 0 — and annihilates the
// constant vector.
func TestQuickLaplacianPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		g := RandomConnected(n, rng.Intn(3*n), seed)
		q := g.Laplacian()
		x := make([]float64, n)
		qx := make([]float64, n)
		for trial := 0; trial < 5; trial++ {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			q.MatVec(x, qx)
			if linalg.Dot(x, qx) < -1e-9 {
				return false
			}
		}
		for i := range x {
			x[i] = 1
		}
		q.MatVec(x, qx)
		return linalg.MaxAbs(qx) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCliqueExpansionWeight: the total edge weight of a clique
// expansion equals Σ_nets cost(|e|)·|e|(|e|−1)/2 minus nothing — merging
// preserves total weight.
func TestQuickCliqueExpansionWeight(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		b := hypergraph.NewBuilder()
		b.AddModules(n)
		var want float64
		model := CliqueModel(rng.Intn(3))
		for e := 0; e < 3+rng.Intn(20); e++ {
			size := 2 + rng.Intn(4)
			if size > n {
				size = n
			}
			mods := rng.Perm(n)[:size]
			if err := b.AddNet("", mods...); err != nil {
				return false
			}
			p := float64(size)
			want += model.EdgeCost(size) * p * (p - 1) / 2
		}
		g, err := FromHypergraph(b.Build(), model)
		if err != nil {
			return false
		}
		return math.Abs(g.TotalDegree()/2-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickInducePreservesWeights: induced subgraph edge weights match
// the originals.
func TestQuickInducePreservesWeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(25)
		g := RandomConnected(n, 2*n, seed)
		size := 2 + rng.Intn(n-2)
		verts := rng.Perm(n)[:size]
		sub, back := g.Induce(verts)
		for u := 0; u < sub.N(); u++ {
			for _, h := range sub.Adj(u) {
				if u < h.To {
					if math.Abs(g.Weight(back[u], back[h.To])-h.W) > 1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickComponentsPartitionVertices: components are disjoint and cover
// all vertices.
func TestQuickComponentsPartitionVertices(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		var edges []Edge
		for e := 0; e < rng.Intn(2*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, Edge{U: u, V: v, W: 1})
			}
		}
		g := MustNew(n, edges)
		seen := make([]bool, n)
		for _, comp := range g.Components() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
