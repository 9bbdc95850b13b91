package eigen_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/delta"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/linalg"
	"repro/internal/oracle"
	"repro/internal/partest"
	"repro/internal/trace"
)

// laplacian returns the partitioning-specific clique-model Laplacian of
// h, the operator every spectral method in the pipeline solves.
func laplacian(t *testing.T, h *hypergraph.Hypergraph) *linalg.CSR {
	t.Helper()
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.Laplacian()
}

// corpusStride thins the corpora below to every corpusStride-th
// instance. It is 1 except under the race detector, whose
// instrumentation slows the frozen reference's Dense.At/Set QL enough
// to put the full corpora near the default test timeout; every plain
// `go test` runs them whole.
var corpusStride = 1

// ladderOptions are the options resilience.SolveEigen's first Lanczos
// attempt passes for n and d.
func ladderOptions(n, d int) eigen.LanczosOptions {
	dim := max(12*d+100, 300)
	return eigen.LanczosOptions{Tol: 1e-6, MaxDim: min(dim, n), Seed: 1}
}

// stall is a fault hook that withholds convergence for the whole
// attempt and lets at most max pairs count as converged in the salvage.
type stall struct{ max int }

func (s stall) StartAttempt() (eigen.FaultDirective, error) {
	return eigen.FaultDirective{Stall: true, MaxConverged: s.max}, nil
}
func (stall) AtStep(int, []float64) {}

// vectorTol bounds each Ritz vector component's distance from the
// frozen reference's. The production solver rebuilds the tridiagonal's
// eigenvectors by replaying the QL's rotations backwards, where the
// reference accumulates the full eigenvector matrix: the same
// rotations multiplied in another order, so the vectors agree to
// rounding (measured ≤ 8.7e-16 on these corpora), not bit for bit.
const vectorTol = 1e-14

// pinLanczos solves a with the production solver and the frozen
// reference and fails unless both stop at the same step (the
// eigen.matvec count) with the same error, bit-identical eigenvalues
// and eigenvectors within vectorTol. It returns the step.
func pinLanczos(t *testing.T, label string, a linalg.Operator, d int, opts eigen.LanczosOptions) int {
	t.Helper()
	tr := trace.New()
	got, err := eigen.LanczosCtx(trace.WithTracer(context.Background(), tr), a, d, &opts)
	want, steps, werr := eigen.ReferenceLanczos(context.Background(), a, d, &opts)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, reference %v", label, err, werr)
	}
	if got := tr.Counter("eigen.matvec"); got != int64(steps) {
		t.Fatalf("%s: stopped after %d matvecs, reference %d", label, got, steps)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: decomposition %v, reference %v", label, got != nil, want != nil)
	}
	if got == nil {
		return steps
	}
	if !eigen.SameBits(got.Values, want.Values) {
		t.Fatalf("%s: eigenvalues differ from the reference", label)
	}
	if len(got.Vectors.Data) != len(want.Vectors.Data) {
		t.Fatalf("%s: %d eigenvector components, reference %d", label, len(got.Vectors.Data), len(want.Vectors.Data))
	}
	for i, x := range got.Vectors.Data {
		if diff := math.Abs(x - want.Vectors.Data[i]); diff > vectorTol {
			t.Fatalf("%s: eigenvector component %d off the reference by %.3g", label, i, diff)
		}
	}
	return steps
}

// The differential oracle's corpus: structured families with
// degenerate spectra (cycles, stars, complete bipartite graphs),
// disconnected twins and seeded random netlists, n ≤ 12, so the solves
// end on the j == n and invariant-subspace branches of the check.
func TestLanczosCheckMatchesReferenceOracleCorpus(t *testing.T) {
	for _, c := range oracle.Corpus(1) {
		a := laplacian(t, c.H)
		n := a.Dim()
		for d := 1; d <= min(3, n); d++ {
			pinLanczos(t, fmt.Sprintf("%s d=%d", c.Name, d), a, d, ladderOptions(n, d))
		}
	}
}

// The partest corpus: the seeded random and disconnected netlists the
// equivalence suite solves, under selective and full
// reorthogonalization, and with budgets that end in the salvage of a
// converged prefix.
func TestLanczosCheckMatchesReferencePartestCorpus(t *testing.T) {
	type inst struct {
		name string
		h    *hypergraph.Hypergraph
	}
	var corpus []inst
	for _, p := range []struct {
		n, extra, maxPin int
		seed             int64
	}{
		{400, 900, 6, 1}, {400, 900, 6, 2}, {300, 700, 5, 11}, {350, 800, 6, 3},
		{220, 500, 5, 23}, {160, 350, 5, 47}, {180, 400, 5, 71}, {800, 2000, 6, 13},
		{120, 260, 5, 17}, {48, 110, 5, 9},
	} {
		corpus = append(corpus, inst{fmt.Sprintf("rand%d_s%d", p.n, p.seed), partest.RandomNetlist(p.n, p.extra, p.maxPin, p.seed)})
	}
	corpus = append(corpus, inst{"islands", partest.DisconnectedNetlist(1,
		partest.RandomNetlist(60, 120, 4, 5), partest.RandomNetlist(40, 80, 4, 6))})

	salvaged := 0
	for i, c := range corpus {
		if i%corpusStride != 0 {
			continue
		}
		a := laplacian(t, c.h)
		n := a.Dim()
		for _, d := range []int{2, 11} {
			pinLanczos(t, fmt.Sprintf("%s d=%d", c.name, d), a, d, ladderOptions(n, d))
		}
		opts := ladderOptions(n, 5)
		opts.Reorth = eigen.ReorthFull
		pinLanczos(t, c.name+" d=5 full-reorth", a, 5, opts)
		// A budget too small for all 11 pairs: the solve ends at
		// MaxDim and returns whatever prefix converged.
		opts = ladderOptions(n, 11)
		opts.MaxDim = min(45, n)
		if pinLanczos(t, c.name+" salvage", a, 11, opts) == opts.MaxDim {
			salvaged++
		}
		// A stalled attempt runs to its budget and caps the salvaged
		// prefix.
		opts = ladderOptions(n, 5)
		opts.MaxDim = min(80, n)
		opts.Fault = stall{max: 3}
		pinLanczos(t, c.name+" stall", a, 5, opts)
	}
	if salvaged == 0 {
		t.Fatal("no solve reached the salvage branch")
	}
}

// The circuits the cold-flat benchmark cycles through, rescaled to its
// n ≈ 1000, solved for the 11 pairs a K=2, d=10 job asks for.
func TestLanczosCheckMatchesReferenceColdFlat(t *testing.T) {
	for i, class := range []string{"bm1", "prim1", "prim2", "test02", "test03", "test04", "test05", "test06", "19ks"} {
		if i%corpusStride != 0 {
			continue
		}
		c, err := bench.Lookup(class)
		if err != nil {
			t.Fatal(err)
		}
		h, err := bench.GenerateSeeded(c.Scaled(1000/float64(c.Modules)), 1)
		if err != nil {
			t.Fatal(err)
		}
		a := laplacian(t, h)
		pinLanczos(t, class, a, 11, ladderOptions(a.Dim(), 11))
	}
}

// A seeded delta solve on prim2: the mutated netlist's Lanczos starts
// from the base spectrum's combined Ritz direction, as the warm path's
// attempt 0 does.
func TestLanczosCheckMatchesReferenceSeededDelta(t *testing.T) {
	c, err := bench.Lookup("prim2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := bench.GenerateSeeded(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	const want = 11
	a := laplacian(t, base)
	n := a.Dim()
	opts := ladderOptions(n, want)
	seed, err := eigen.Lanczos(a, want, &opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seeded := 0
	for i, dl := range []*delta.Delta{
		{SetPins: []delta.NetChange{{Name: base.NetNames[5], Modules: []int{0, 4, n - 1}}}},
		{RemoveNets: []string{base.NetNames[3]}, AddNets: []delta.NetChange{{Name: "eco-s", Modules: []int{2, n - 3}}}},
		{AddNets: []delta.NetChange{{Name: "eco-r", Modules: []int{rng.Intn(n), rng.Intn(n/2) + n/2}}}},
	} {
		if i%corpusStride != 0 {
			continue
		}
		mut, _, err := delta.Apply(base, dl)
		if err != nil {
			t.Fatal(err)
		}
		ma := laplacian(t, mut)
		ev := eigen.EvaluateWarmSeed(ma, seed, want, opts.Tol)
		if ev.Outcome != eigen.WarmSeeded {
			continue
		}
		seeded++
		so := opts
		so.InitialVector = ev.Start
		pinLanczos(t, fmt.Sprintf("prim2 delta %d", i), ma, want, so)
	}
	if seeded == 0 {
		t.Fatal("no delta produced a seeded solve")
	}
}
