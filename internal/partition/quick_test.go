package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hypergraph"
)

func randomHypergraph(rng *rand.Rand, n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddModules(n)
	for e := 0; e < 2*n; e++ {
		size := 2 + rng.Intn(3)
		if size > n {
			size = n
		}
		_ = b.AddNet("", rng.Perm(n)[:size]...)
	}
	return b.Build()
}

// TestQuickCanonicalIdempotent: Canonical is idempotent and preserves the
// cluster structure (same pairs together).
func TestQuickCanonicalIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		k := 1 + rng.Intn(4)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		p := MustNew(assign, k)
		c1 := p.Canonical()
		c2 := c1.Canonical()
		for i := range c1.Assign {
			if c1.Assign[i] != c2.Assign[i] {
				return false
			}
		}
		// Same-cluster relation preserved.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (p.Assign[i] == p.Assign[j]) != (c1.Assign[i] == c1.Assign[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickMetricsLabelInvariant: NetCut, ScaledCost and F are invariant
// under cluster relabeling.
func TestQuickMetricsLabelInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		h := randomHypergraph(rng, n)
		g, err := graph.FromHypergraph(h, graph.Standard)
		if err != nil {
			return false
		}
		k := 2 + rng.Intn(3)
		assign := make([]int, n)
		perm := rng.Perm(n)
		for c := 0; c < k; c++ {
			assign[perm[c]] = c
		}
		for _, i := range perm[k:] {
			assign[i] = rng.Intn(k)
		}
		p := MustNew(assign, k)
		// Relabel by a random permutation of cluster ids.
		relabel := rng.Perm(k)
		swapped := make([]int, n)
		for i, c := range assign {
			swapped[i] = relabel[c]
		}
		q := MustNew(swapped, k)
		if NetCut(h, p) != NetCut(h, q) {
			return false
		}
		if math.Abs(ScaledCost(h, p)-ScaledCost(h, q)) > 1e-12 {
			return false
		}
		return math.Abs(F(g, p)-F(g, q)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickNetCutBounds: 0 <= NetCut <= NumNets, and the all-one-cluster
// partition cuts nothing.
func TestQuickNetCutBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		h := randomHypergraph(rng, n)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(3)
		}
		p := MustNew(assign, 3)
		cut := NetCut(h, p)
		if cut < 0 || cut > h.NumNets() {
			return false
		}
		one := MustNew(make([]int, n), 1)
		return NetCut(h, one) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickFromOrderSplitInverse: splitting an ordering and reading the
// clusters back off the partition reproduces contiguous blocks.
func TestQuickFromOrderSplitInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		order := rng.Perm(n)
		s := 1 + rng.Intn(n-1)
		p, err := FromOrderSplit(order, []int{s}, 2)
		if err != nil {
			return false
		}
		for pos, v := range order {
			want := 0
			if pos >= s {
				want = 1
			}
			if p.Assign[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
