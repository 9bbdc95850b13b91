package melo

import (
	"context"
	"math"
	"testing"

	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/graph"
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

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestOrderIsPermutation(t *testing.T) {
	g := graph.RandomConnected(60, 120, 7)
	dec := decompose(t, g, 8)
	for s := Scheme(0); s < NumSchemes; s++ {
		opts := NewOptions()
		opts.D = 8
		opts.Scheme = s
		res, err := Order(g, dec, opts)
		if err != nil {
			t.Fatalf("scheme %v: %v", s, err)
		}
		if !isPermutation(res.Order, g.N()) {
			t.Errorf("scheme %v: ordering is not a permutation", s)
		}
		if len(res.Objective) != g.N() || len(res.H) != g.N() {
			t.Errorf("scheme %v: diagnostics have wrong length", s)
		}
	}
}

// TestPathGraphD1ReproducesFiedlerOrder: with a single eigenvector the
// greedy gain scheme must walk the path monotonically — MELO with d = 1 is
// spectral bipartitioning's linear ordering.
func TestPathGraphD1ReproducesFiedlerOrder(t *testing.T) {
	n := 24
	g := graph.Path(n)
	dec := decompose(t, g, 1)
	opts := NewOptions()
	opts.D = 1
	opts.AdaptiveH = false
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The ordering must be the path order or its reverse.
	forward, backward := true, true
	for i, v := range res.Order {
		if v != i {
			forward = false
		}
		if v != n-1-i {
			backward = false
		}
	}
	if !forward && !backward {
		t.Errorf("d=1 path ordering = %v, want monotone walk", res.Order)
	}
}

// TestTwoClustersSeparated: on a graph of two dense clusters joined by
// weak bridges, MELO must place one cluster contiguously first, so the
// best balanced split recovers the planted cut.
func TestTwoClustersSeparated(t *testing.T) {
	g := graph.TwoClusters(20, 20, 3, 0.25, 11)
	dec := decompose(t, g, 6)
	opts := NewOptions()
	opts.D = 6
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	split, err := dprp.BestBalancedSplitGraph(g, res.Order, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	// Planted cut: 3 bridges of weight 0.25.
	if split.Cut > 0.75+1e-9 {
		t.Errorf("balanced cut %v, want planted 0.75", split.Cut)
	}
	sideOfFirst := res.Order[0] < 20
	for _, v := range res.Order[:20] {
		if (v < 20) != sideOfFirst {
			t.Errorf("first 20 ordering positions mix clusters")
			break
		}
	}
}

// TestMoreEigenvectorsHelp is the paper's headline claim at unit-test
// scale: across several random clustered instances, the best balanced
// bipartition from d = 5 orderings is on average at least as good as from
// d = 1, and strictly better somewhere.
func TestMoreEigenvectorsHelp(t *testing.T) {
	var sum1, sum5 float64
	better, worse := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		g := graph.RandomConnected(80, 200, seed)
		dec := decompose(t, g, 5)
		var cuts [2]float64
		for idx, d := range []int{1, 5} {
			opts := NewOptions()
			opts.D = d
			res, err := Order(g, dec, opts)
			if err != nil {
				t.Fatal(err)
			}
			split, err := dprp.BestBalancedSplitGraph(g, res.Order, 0.45)
			if err != nil {
				t.Fatal(err)
			}
			cuts[idx] = split.Cut
		}
		sum1 += cuts[0]
		sum5 += cuts[1]
		if cuts[1] < cuts[0]-1e-9 {
			better++
		}
		if cuts[1] > cuts[0]+1e-9 {
			worse++
		}
	}
	if sum5 > sum1 {
		t.Errorf("d=5 total cut %v worse than d=1 total %v", sum5, sum1)
	}
	if better == 0 {
		t.Error("d=5 never strictly improved on d=1 across six instances")
	}
	t.Logf("d=1 total %.3f, d=5 total %.3f (better on %d, worse on %d of 6)", sum1, sum5, better, worse)
}

func TestAdaptiveHRecorded(t *testing.T) {
	g := graph.RandomConnected(150, 400, 5)
	dec := decompose(t, g, 4)
	opts := NewOptions()
	opts.D = 4
	opts.AdaptiveH = true
	opts.RecomputeEvery = 25
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := 1; i < len(res.H); i++ {
		if res.H[i] != res.H[0] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("adaptive H never changed on a 150-vertex instance")
	}
	// H must never drop below λ_{d+1} (the largest used eigenvalue).
	lamD := dec.Values[opts.D]
	for i, h := range res.H {
		if h < lamD-1e-9 {
			t.Fatalf("H[%d] = %v below λ_d = %v", i, h, lamD)
		}
	}
	// Fixed-H run must keep H constant.
	opts.AdaptiveH = false
	res2, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res2.H {
		if h != res2.H[0] {
			t.Fatal("fixed-H run changed H")
		}
	}
}

func TestObjectiveIsFinalTotal(t *testing.T) {
	// After the last insertion S = V, so Y_S is the full sum: under the
	// raw projections, Y_V projects only onto the trivial eigenvector,
	// which MELO excludes — the final objective must therefore be ~0
	// relative to intermediate values (all non-trivial eigenvectors are
	// orthogonal to the all-ones indicator).
	g := graph.RandomConnected(40, 100, 13)
	dec := decompose(t, g, 5)
	opts := NewOptions()
	opts.D = 5
	opts.AdaptiveH = false
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, o := range res.Objective {
		if o > peak {
			peak = o
		}
	}
	final := res.Objective[len(res.Objective)-1]
	if final > 1e-6*peak {
		t.Errorf("final objective %v, want ~0 (peak %v)", final, peak)
	}
}

func TestOrderArgumentValidation(t *testing.T) {
	g := graph.Path(10)
	dec := decompose(t, g, 3)
	if _, err := Order(g, dec, Options{D: 0}); err == nil {
		t.Error("D=0 accepted")
	}
	empty := graph.MustNew(0, nil)
	if _, err := Order(empty, dec, NewOptions()); err == nil {
		t.Error("empty graph accepted")
	}
	// Decomposition with a single pair cannot supply non-trivial vectors.
	small, err := dec.Truncate(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Order(g, small, NewOptions()); err == nil {
		t.Error("decomposition with only the trivial pair accepted")
	}
}

func TestDClampedToAvailablePairs(t *testing.T) {
	g := graph.Path(12)
	dec := decompose(t, g, 4) // 5 pairs
	opts := NewOptions()
	opts.D = 50 // more than available: clamp to dec.D()-1 = 4
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 4 {
		t.Errorf("clamped D = %d, want 4", res.D)
	}
}

func TestStartVertexOption(t *testing.T) {
	g := graph.RandomConnected(30, 60, 21)
	dec := decompose(t, g, 3)
	opts := NewOptions()
	opts.D = 3
	opts.Start = 17
	res, err := Order(g, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Order[0] != 17 {
		t.Errorf("Start=17 ignored, ordering begins at %d", res.Order[0])
	}
}

func TestSchemesProduceDifferentOrderings(t *testing.T) {
	g := graph.RandomConnected(50, 150, 33)
	dec := decompose(t, g, 6)
	orders := make([][]int, NumSchemes)
	for s := Scheme(0); s < NumSchemes; s++ {
		opts := NewOptions()
		opts.D = 6
		opts.Scheme = s
		res, err := Order(g, dec, opts)
		if err != nil {
			t.Fatal(err)
		}
		orders[s] = res.Order
	}
	distinct := 0
	for s := 1; s < NumSchemes; s++ {
		same := true
		for i := range orders[s] {
			if orders[s][i] != orders[0][i] {
				same = false
				break
			}
		}
		if !same {
			distinct++
		}
	}
	if distinct == 0 {
		t.Error("all schemes produced the identical ordering on a random graph")
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		SchemeGain:           "#1 gain",
		SchemeCosine:         "#2 cosine",
		SchemeNormalizedGain: "#3 normalized gain",
		SchemeProjection:     "#4 projection",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Scheme %d String = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme should format")
	}
}

func TestChooseHMeanOfUnused(t *testing.T) {
	g := graph.Path(10)
	dec := decompose(t, g, 9) // all 10 pairs
	full := dec.Values
	traceQ := g.TotalDegree()
	for d := 2; d < 10; d++ {
		h := chooseH(traceQ, full[:d], 10)
		var mean float64
		for j := d; j < 10; j++ {
			mean += full[j]
		}
		mean /= float64(10 - d)
		if math.Abs(h-mean) > 1e-9 {
			t.Errorf("d=%d: chooseH = %v, want mean of unused %v", d, h, mean)
		}
	}
}
