package vkp

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/resilience"
	"repro/internal/vecpart"
)

func instance(t *testing.T, g *graph.Graph, d int) *vecpart.Vectors {
	t.Helper()
	n := g.N()
	if d > n {
		d = n
	}
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), n, resilience.EigenPolicy{MinD: n})
	if err != nil {
		t.Fatal(err)
	}
	dec := sol.Dec
	H := vecpart.ChooseH(g.TotalDegree(), dec.Values[:d], n)
	trunc, err := dec.Truncate(d)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vecpart.FromDecomposition(trunc, d, vecpart.MaxSum, H)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRecoverTwoClusters(t *testing.T) {
	g := graph.TwoClusters(15, 15, 2, 0.25, 7)
	v := instance(t, g, 8)
	res, err := Partition(v, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cut := partition.CutWeight(g, res.Partition); cut > 0.5+1e-9 {
		t.Errorf("cut %v, want planted 0.5", cut)
	}
}

func TestObjectiveMatchesMetric(t *testing.T) {
	g := graph.RandomConnected(40, 100, 3)
	v := instance(t, g, 6)
	res, err := Partition(v, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	direct := v.SumSquaredSubsets(res.Partition)
	if math.Abs(direct-res.Objective) > 1e-7*(1+math.Abs(direct)) {
		t.Errorf("reported %v, metric %v", res.Objective, direct)
	}
}

func TestSizeBounds(t *testing.T) {
	g := graph.RandomConnected(60, 150, 9)
	v := instance(t, g, 5)
	res, err := Partition(v, Options{K: 4, MinSize: 12, MaxSize: 18})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res.Partition.Sizes() {
		if s < 12 || s > 18 {
			t.Errorf("cluster %d size %d outside [12,18]", c, s)
		}
	}
	// Default bounds.
	res2, err := Partition(v, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res2.Partition.Sizes() {
		if s < 10 || s > 40 {
			t.Errorf("default bounds violated: cluster %d size %d", c, s)
		}
	}
}

// TestNearOptimalWithFullSpectrum: with d = n and an exhaustively
// solvable instance, the heuristic should land close to the brute-force
// vector-partitioning optimum.
func TestNearOptimalWithFullSpectrum(t *testing.T) {
	var got, opt float64
	for seed := int64(0); seed < 4; seed++ {
		g := graph.RandomConnected(10, 18, seed)
		v := instance(t, g, 10)
		res, err := Partition(v, Options{K: 2, MinSize: 1, MaxSize: 9})
		if err != nil {
			t.Fatal(err)
		}
		_, best := vecpart.BestVectorPartition(v, 2)
		if res.Objective > best+1e-9 {
			t.Fatalf("seed %d: objective %v exceeds optimum %v", seed, res.Objective, best)
		}
		got += res.Objective
		opt += best
	}
	if got < 0.97*opt {
		t.Errorf("total objective %v below 97%% of optimum %v", got, opt)
	}
}

// TestRefinementIsLocalOptimum: after Partition returns, no single move
// within the bounds may improve the objective.
func TestRefinementIsLocalOptimum(t *testing.T) {
	g := graph.RandomConnected(30, 80, 11)
	v := instance(t, g, 5)
	res, err := Partition(v, Options{K: 3, RefinePasses: 50})
	if err != nil {
		t.Fatal(err)
	}
	assign := res.Partition.Assign
	sizes := res.Partition.Sizes()
	n := v.N()
	lo := n / (2 * 3)
	hi := (2*n + 2) / 3
	base := v.SumSquaredSubsets(res.Partition)
	for i := 0; i < n; i++ {
		from := assign[i]
		if sizes[from]-1 < lo {
			continue
		}
		for c := 0; c < 3; c++ {
			if c == from || sizes[c]+1 > hi {
				continue
			}
			trial := append([]int(nil), assign...)
			trial[i] = c
			p := partition.MustNew(trial, 3)
			if v.SumSquaredSubsets(p) > base+1e-6*(1+base) {
				t.Fatalf("move of %d from %d to %d improves the objective", i, from, c)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(10)
	v := instance(t, g, 3)
	if _, err := Partition(v, Options{K: 1}); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := Partition(v, Options{K: 11}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Partition(v, Options{K: 3, MinSize: 4, MaxSize: 4}); err == nil {
		t.Error("infeasible bounds accepted")
	}
}

func TestMaxMinObjective(t *testing.T) {
	g := graph.RandomConnected(40, 110, 7)
	v := instance(t, g, 6)
	res, err := Partition(v, Options{K: 4, Objective: MaxMin, RefinePasses: 30})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res.Partition.Sizes() {
		if s == 0 {
			t.Errorf("cluster %d empty", c)
		}
	}
	// No single feasible move may raise the minimum subset norm.
	n := v.N()
	k := 4
	lo := n / (2 * k)
	hi := (2*n + k - 1) / k
	sizes := res.Partition.Sizes()
	base, _ := v.MinMaxSquaredSubset(res.Partition)
	for i := 0; i < n; i++ {
		from := res.Partition.Assign[i]
		if sizes[from]-1 < lo {
			continue
		}
		for c := 0; c < k; c++ {
			if c == from || sizes[c]+1 > hi {
				continue
			}
			trial := append([]int(nil), res.Partition.Assign...)
			trial[i] = c
			p := partition.MustNew(trial, k)
			if m, _ := v.MinMaxSquaredSubset(p); m > base+1e-6*(1+base) {
				t.Fatalf("move %d: %d -> %d raises the minimum (%v > %v)", i, from, c, m, base)
			}
		}
	}
}

func TestMaxMinBeatsMaxSumOnMinNorm(t *testing.T) {
	// The MaxMin objective should (weakly) produce a larger minimum
	// subset norm than MaxSum on the same instance, most of the time.
	better := 0
	for seed := int64(0); seed < 5; seed++ {
		g := graph.RandomConnected(36, 100, seed+30)
		v := instance(t, g, 5)
		ms, err := Partition(v, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		mm, err := Partition(v, Options{K: 3, Objective: MaxMin, RefinePasses: 20})
		if err != nil {
			t.Fatal(err)
		}
		minSum, _ := v.MinMaxSquaredSubset(ms.Partition)
		minMin, _ := v.MinMaxSquaredSubset(mm.Partition)
		if minMin >= minSum-1e-9 {
			better++
		}
	}
	if better < 3 {
		t.Errorf("MaxMin won the min-norm comparison only %d/5 times", better)
	}
}

func TestSeedsAreDistinct(t *testing.T) {
	g := graph.RandomConnected(25, 60, 2)
	v := instance(t, g, 4)
	seeds := chooseSeeds(v, 5)
	seen := map[int]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
}
