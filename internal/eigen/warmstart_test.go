package eigen

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
)

const warmTol = 1e-6

// warmOperator returns a connected random graph's Laplacian plus a
// converged decomposition of its d smallest pairs.
func warmOperator(t *testing.T, n, d int, seed int64) (*linalg.CSR, *Decomposition) {
	t.Helper()
	g := graph.RandomConnected(n, 3*n, seed)
	a := g.Laplacian()
	dec, err := Lanczos(a, d, &LanczosOptions{Tol: warmTol})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	return a, dec
}

func TestEvaluateWarmSeedAcceptsConvergedSeed(t *testing.T) {
	a, dec := warmOperator(t, 300, 6, 1)
	ev := EvaluateWarmSeed(a, dec, 6, warmTol)
	if ev.Outcome != WarmAccepted {
		t.Fatalf("outcome = %v (res %g, scale %g, reason %q), want accepted", ev.Outcome, ev.MaxResidual, ev.Scale, ev.Reason)
	}
	if ev.Refreshed == nil || ev.Refreshed.D() != 6 {
		t.Fatalf("accepted eval lacks a refreshed decomposition")
	}
	// The refreshed pairs must themselves satisfy the residual bound and
	// be sorted ascending.
	if r := Residual(a, ev.Refreshed); r > warmTol*ev.Scale {
		t.Fatalf("refreshed residual %g > %g", r, warmTol*ev.Scale)
	}
	for j := 1; j < len(ev.Refreshed.Values); j++ {
		if ev.Refreshed.Values[j] < ev.Refreshed.Values[j-1] {
			t.Fatalf("refreshed values not ascending: %v", ev.Refreshed.Values)
		}
	}
	// Refreshed must not alias the seed.
	ev.Refreshed.Vectors.Set(0, 0, math.Pi)
	if dec.Vectors.At(0, 0) == math.Pi {
		t.Fatal("refreshed decomposition aliases the seed")
	}
}

func TestEvaluateWarmSeedSeedsPerturbedOperator(t *testing.T) {
	_, dec := warmOperator(t, 300, 6, 2)
	// Perturb: add a handful of edges (rank-small, O(1)-norm change —
	// far beyond tol·scale but well within the seedable band).
	g2 := graph.RandomConnected(300, 3*300, 2)
	edges := g2.Edges()
	extra := []graph.Edge{
		{U: 0, V: 150, W: 1}, {U: 7, V: 240, W: 1}, {U: 33, V: 99, W: 1},
	}
	p := graph.MustNew(300, append(edges, extra...))
	ev := EvaluateWarmSeed(p.Laplacian(), dec, 6, warmTol)
	if ev.Outcome != WarmSeeded {
		t.Fatalf("outcome = %v (res %g, scale %g, reason %q), want seeded", ev.Outcome, ev.MaxResidual, ev.Scale, ev.Reason)
	}
	if len(ev.Start) != 300 || math.Abs(linalg.Norm2(ev.Start)-1) > 1e-12 {
		t.Fatalf("seeded start vector is not unit length-%d", len(ev.Start))
	}

	// A seeded Lanczos must converge to the same spectrum as a cold
	// solve of the perturbed operator.
	coldDec, err := Lanczos(p.Laplacian(), 6, &LanczosOptions{Tol: warmTol})
	if err != nil {
		t.Fatalf("cold solve of perturbed operator: %v", err)
	}
	warmDec, err := Lanczos(p.Laplacian(), 6, &LanczosOptions{Tol: warmTol, InitialVector: ev.Start})
	if err != nil {
		t.Fatalf("seeded solve: %v", err)
	}
	for j := range coldDec.Values {
		if diff := math.Abs(coldDec.Values[j] - warmDec.Values[j]); diff > 1e-5*ev.Scale {
			t.Fatalf("eigenvalue %d: warm %.12g vs cold %.12g", j, warmDec.Values[j], coldDec.Values[j])
		}
	}
	if r := Residual(p.Laplacian(), warmDec); r > warmTol*ev.Scale*2 {
		t.Fatalf("seeded solve residual %g too large", r)
	}
}

func TestEvaluateWarmSeedRejections(t *testing.T) {
	a, dec := warmOperator(t, 120, 4, 3)

	corrupt := func(mutate func(d *Decomposition)) *Decomposition {
		c := &Decomposition{Values: linalg.CopyVec(dec.Values), Vectors: dec.Vectors.Clone()}
		mutate(c)
		return c
	}

	cases := []struct {
		name string
		seed *Decomposition
		d    int
	}{
		{"nil-seed", nil, 4},
		{"nil-vectors", &Decomposition{Values: []float64{0}}, 4},
		{"dim-mismatch", func() *Decomposition {
			_, small := warmOperator(t, 60, 4, 4)
			return small
		}(), 4},
		{"too-few-pairs", dec, 6},
		{"nan-entry", corrupt(func(c *Decomposition) { c.Vectors.Set(5, 1, math.NaN()) }), 4},
		{"inf-entry", corrupt(func(c *Decomposition) { c.Vectors.Set(0, 0, math.Inf(1)) }), 4},
		{"zeroed-vector", corrupt(func(c *Decomposition) {
			for i := 0; i < c.Vectors.Rows; i++ {
				c.Vectors.Set(i, 2, 0)
			}
		}), 4},
		{"duplicate-vector", corrupt(func(c *Decomposition) {
			for i := 0; i < c.Vectors.Rows; i++ {
				c.Vectors.Set(i, 3, c.Vectors.At(i, 2))
			}
		}), 4},
		{"bad-d", dec, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev := EvaluateWarmSeed(a, tc.seed, tc.d, warmTol)
			if ev.Outcome != WarmRejected {
				t.Fatalf("outcome = %v, want rejected (reason %q)", ev.Outcome, ev.Reason)
			}
			if ev.Reason == "" {
				t.Fatal("rejection carries no reason")
			}
		})
	}
}

// TestEvaluateWarmSeedRejectsUnrelatedSubspace: an orthonormal but
// spectrally meaningless seed (random subspace) must fail the residual
// check, not be accepted or seeded.
func TestEvaluateWarmSeedRejectsUnrelatedSubspace(t *testing.T) {
	a, _ := warmOperator(t, 200, 4, 5)
	// An orthonormal basis of coordinate directions is exactly unit and
	// orthogonal, but is no eigenbasis of a random graph's Laplacian.
	u := linalg.NewDense(200, 4)
	for j := 0; j < 4; j++ {
		u.Set(j*17, j, 1)
	}
	seed := &Decomposition{Values: []float64{0, 1, 2, 3}, Vectors: u}
	ev := EvaluateWarmSeed(a, seed, 4, warmTol)
	if ev.Outcome == WarmAccepted {
		t.Fatalf("random subspace accepted (res %g, scale %g)", ev.MaxResidual, ev.Scale)
	}
}

func TestLanczosInitialVectorDeterminismAndFallback(t *testing.T) {
	g := graph.RandomConnected(350, 900, 9)
	a := g.Laplacian()
	start := make([]float64, 350)
	for i := range start {
		start[i] = math.Sin(float64(3*i + 1))
	}
	d1, err := Lanczos(a, 5, &LanczosOptions{InitialVector: start})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Lanczos(a, 5, &LanczosOptions{InitialVector: start})
	if err != nil {
		t.Fatal(err)
	}
	for j := range d1.Values {
		if d1.Values[j] != d2.Values[j] {
			t.Fatalf("InitialVector solve not deterministic at pair %d", j)
		}
		for i := 0; i < 350; i++ {
			if d1.Vectors.At(i, j) != d2.Vectors.At(i, j) {
				t.Fatalf("InitialVector solve vectors differ at (%d,%d)", i, j)
			}
		}
	}

	// Unusable initial vectors (wrong length, non-finite, zero) fall
	// back to the default random start — bitwise equal to no seed.
	ref, err := Lanczos(a, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]float64{
		"short": make([]float64, 10),
		"nan":   append(make([]float64, 349), math.NaN()),
		"zero":  make([]float64, 350),
	} {
		got, err := Lanczos(a, 5, &LanczosOptions{InitialVector: bad})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for j := range ref.Values {
			if got.Values[j] != ref.Values[j] {
				t.Fatalf("%s: fallback differs from default start at pair %d", name, j)
			}
		}
	}
}

func TestOperatorScaleLowerBoundsNorm(t *testing.T) {
	g := graph.RandomConnected(150, 400, 11)
	a := g.Laplacian()
	dense := Densify(a)
	full, err := SymEig(dense)
	if err != nil {
		t.Fatal(err)
	}
	lambdaMax := full.Values[len(full.Values)-1]
	scratch := make([]float64, 150)
	est := operatorScale(a, scratch)
	if est > lambdaMax*(1+1e-9) {
		t.Fatalf("operatorScale %g exceeds λmax %g", est, lambdaMax)
	}
	if est < lambdaMax/4 {
		t.Fatalf("operatorScale %g too far below λmax %g to be useful", est, lambdaMax)
	}
}
