package partest

import (
	"context"
	"math"
	"testing"

	spectral "repro"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/melo"
	"repro/internal/parallel"
	"repro/internal/resilience"
)

var workerLevels = []int{1, 2, 3, 4, 7}

// TestMatVecSerialParallelExact: the row-sharded MatVec must reproduce
// the serial product bit for bit at every worker count, on real
// netlist-derived Laplacians (uneven row sparsity) and dense matrices.
func TestMatVecSerialParallelExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		h := RandomNetlist(400, 900, 6, seed)
		g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
		if err != nil {
			t.Fatal(err)
		}
		q := g.Laplacian()
		x := make([]float64, g.N())
		for i := range x {
			x[i] = math.Sin(float64(i)*0.7 + float64(seed))
		}
		want := make([]float64, g.N())
		q.MatVec(x, want)
		for _, w := range workerLevels {
			got := make([]float64, g.N())
			q.MatVecPar(x, got, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: CSR row %d: got %v, want %v (bitwise)", seed, w, i, got[i], want[i])
				}
			}
		}
		dm := g.LaplacianDense()
		dwant := make([]float64, g.N())
		dm.MatVec(x, dwant)
		for _, w := range workerLevels {
			got := make([]float64, g.N())
			dm.MatVecPar(x, got, w)
			for i := range dwant {
				if got[i] != dwant[i] {
					t.Fatalf("seed %d workers %d: Dense row %d differs bitwise", seed, w, i)
				}
			}
		}
	}
}

// TestLanczosWorkerEquivalence: the full Lanczos solve is built from
// worker-invariant kernels, so its eigenpairs must agree across worker
// counts — eigenvalues to tiny tolerance and eigenvectors after sign
// canonicalization (the ±1 ambiguity is the only slack allowed).
func TestLanczosWorkerEquivalence(t *testing.T) {
	h := RandomNetlist(300, 700, 5, 11)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	q := g.Laplacian()
	const d = 8
	ref, err := eigen.Lanczos(q, d, &eigen.LanczosOptions{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refVecs := CanonicalVectors(ref, 1e-8)
	for _, w := range workerLevels[1:] {
		dec, err := eigen.Lanczos(q, d, &eigen.LanczosOptions{Seed: 7, Workers: w})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if dec.D() != ref.D() {
			t.Fatalf("workers %d: got %d pairs, want %d", w, dec.D(), ref.D())
		}
		vecs := CanonicalVectors(dec, 1e-8)
		for j := 0; j < dec.D(); j++ {
			if dv := math.Abs(dec.Values[j] - ref.Values[j]); dv > 1e-12 {
				t.Errorf("workers %d: λ_%d differs by %g", w, j, dv)
			}
			for i := range vecs[j] {
				if dv := math.Abs(vecs[j][i] - refVecs[j][i]); dv > 1e-12 {
					t.Fatalf("workers %d: vector %d entry %d differs by %g", w, j, i, dv)
				}
			}
		}
	}
}

// TestLanczosSelectiveReorthInvariants: on the netlist corpus, the
// selective-reorthogonalization Lanczos (the default) must match the
// full-reorth solver's eigenvalues, keep true residuals under the
// semi-orthogonality floor O(√ε·‖A‖), and return an orthonormal Ritz
// basis — at every worker count, bit-identically across worker counts.
// This is the corpus-wide guarantee behind replacing full reorth in the
// hot path: selective trades per-step O(m·n) work for an ω-recurrence
// estimate, and this test is what keeps that trade honest.
func TestLanczosSelectiveReorthInvariants(t *testing.T) {
	const d = 8
	sqrtEps := math.Sqrt(0x1p-52)
	for _, seed := range []int64{3, 17, 29} {
		h := RandomNetlist(350, 800, 6, seed)
		g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
		if err != nil {
			t.Fatal(err)
		}
		q := g.Laplacian()
		// Gershgorin bound on ‖A‖ for the residual floor.
		scale := 1.0
		for i := 0; i < q.N; i++ {
			row := 0.0
			for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
				row += math.Abs(q.Val[k])
			}
			if row > scale {
				scale = row
			}
		}

		full, err := eigen.Lanczos(q, d, &eigen.LanczosOptions{Seed: 7, Reorth: eigen.ReorthFull})
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		ref, err := eigen.Lanczos(q, d, &eigen.LanczosOptions{Seed: 7, Workers: 1})
		if err != nil {
			t.Fatalf("seed %d selective: %v", seed, err)
		}
		for j := 0; j < d; j++ {
			if dv := math.Abs(ref.Values[j] - full.Values[j]); dv > 1e-7*scale {
				t.Errorf("seed %d: λ_%d selective %g vs full %g (Δ %g)", seed, j, ref.Values[j], full.Values[j], dv)
			}
		}
		if r := eigen.Residual(q, ref); r > 100*sqrtEps*scale {
			t.Errorf("seed %d: selective residual %g exceeds semi-orthogonality floor %g", seed, r, 100*sqrtEps*scale)
		}
		for a := 0; a < d; a++ {
			va := ref.Vector(a)
			for b := a; b < d; b++ {
				dot := linalg.Dot(va, ref.Vector(b))
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > 1e-7 {
					t.Errorf("seed %d: Ritz basis not orthonormal: <u_%d,u_%d> = %g", seed, a, b, dot)
				}
			}
		}
		// Bitwise worker invariance of the selective path.
		for _, w := range []int{2, 4} {
			dec, err := eigen.Lanczos(q, d, &eigen.LanczosOptions{Seed: 7, Workers: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			for j := 0; j < d; j++ {
				if dec.Values[j] != ref.Values[j] {
					t.Fatalf("seed %d workers %d: λ_%d differs bitwise", seed, w, j)
				}
				got, want := dec.Vector(j), ref.Vector(j)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d workers %d: vector %d entry %d differs bitwise", seed, w, j, i)
					}
				}
			}
		}
	}
}

// TestBlockKrylovWorkerEquivalence: same contract for the block solver,
// which exercises the parallel Rayleigh–Ritz projection as well.
func TestBlockKrylovWorkerEquivalence(t *testing.T) {
	g := graph.Cycle(64) // degenerate interior eigenvalues: block solver's home turf
	q := g.Laplacian()
	const d = 6
	ref, err := eigen.BlockKrylov(q, d, &eigen.BlockKrylovOptions{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refVecs := CanonicalVectors(ref, 1e-8)
	for _, w := range workerLevels[1:] {
		dec, err := eigen.BlockKrylov(q, d, &eigen.BlockKrylovOptions{Seed: 3, Workers: w})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		vecs := CanonicalVectors(dec, 1e-8)
		for j := 0; j < d; j++ {
			if dv := math.Abs(dec.Values[j] - ref.Values[j]); dv > 1e-10 {
				t.Errorf("workers %d: λ_%d differs by %g", w, j, dv)
			}
			for i := range vecs[j] {
				if dv := math.Abs(vecs[j][i] - refVecs[j][i]); dv > 1e-10 {
					t.Fatalf("workers %d: vector %d entry %d differs by %g", w, j, i, dv)
				}
			}
		}
	}
}

// TestOrthogonalizeBlockWorkerInvariance: the block Gram–Schmidt helper
// is bitwise worker-invariant against a basis with realistic length —
// above linalg's 4096-row sharding cutoff, below which every worker
// count takes the serial path.
func TestOrthogonalizeBlockWorkerInvariance(t *testing.T) {
	const n, m = 9000, 24
	basis := make([][]float64, m)
	for b := range basis {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Cos(float64(b*n+i) * 0.13)
		}
		linalg.Normalize(v)
		basis[b] = v
	}
	mk := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Sin(float64(i) * 0.31)
		}
		return v
	}
	want := mk()
	linalg.OrthogonalizeBlock(want, basis, 1)
	for _, w := range workerLevels[1:] {
		got := mk()
		linalg.OrthogonalizeBlock(got, basis, w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d: entry %d differs bitwise: %v vs %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestMELOOrderingWorkerEquivalence: the constructed ordering — the
// paper's primary artifact — must be identical at every worker count,
// for every weighting scheme, including the candidate-window path.
func TestMELOOrderingWorkerEquivalence(t *testing.T) {
	h := RandomNetlist(220, 500, 5, 23)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), 9, resilience.EigenPolicy{MinD: 9})
	if err != nil {
		t.Fatal(err)
	}
	dec := sol.Dec
	for scheme := melo.SchemeGain; scheme <= melo.SchemeProjection; scheme++ {
		for _, window := range []int{0, 40} {
			base := melo.NewOptions()
			base.D = 8
			base.Scheme = scheme
			base.CandidateWindow = window
			base.Workers = 1
			ref, err := melo.Order(g, dec, base)
			if err != nil {
				t.Fatalf("scheme %v window %d: %v", scheme, window, err)
			}
			for _, w := range workerLevels[1:] {
				opts := base
				opts.Workers = w
				res, err := melo.Order(g, dec, opts)
				if err != nil {
					t.Fatalf("scheme %v window %d workers %d: %v", scheme, window, w, err)
				}
				for i := range ref.Order {
					if res.Order[i] != ref.Order[i] {
						t.Fatalf("scheme %v window %d workers %d: ordering diverges at position %d (%d vs %d)",
							scheme, window, w, i, res.Order[i], ref.Order[i])
					}
				}
			}
		}
	}
}

// TestPartitionParallelismEquivalence: end to end through the facade,
// Options.Parallelism must not change the chosen partition — for every
// method that consumes the parallel kernels and several K.
func TestPartitionParallelismEquivalence(t *testing.T) {
	h := RandomNetlist(160, 350, 5, 47)
	cases := []struct {
		method spectral.Method
		k      int
	}{
		{spectral.MELO, 2},
		{spectral.MELO, 4},
		{spectral.MELO, 8},
		{spectral.SB, 2},
		{spectral.KP, 4},
		{spectral.SFC, 4},
		{spectral.HL, 4},
	}
	for _, tc := range cases {
		ref, err := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: tc.k, Method: tc.method, Parallelism: 1})
		if err != nil {
			t.Fatalf("%v/K=%d serial: %v", tc.method, tc.k, err)
		}
		for _, w := range []int{2, 4} {
			p, err := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: tc.k, Method: tc.method, Parallelism: w})
			if err != nil {
				t.Fatalf("%v/K=%d parallelism %d: %v", tc.method, tc.k, w, err)
			}
			for i := range ref.Assign {
				if p.Assign[i] != ref.Assign[i] {
					t.Fatalf("%v/K=%d: parallelism %d changed module %d's cluster (%d vs %d)",
						tc.method, tc.k, w, i, p.Assign[i], ref.Assign[i])
				}
			}
		}
	}
}

// TestDisconnectedComponentsParallelism: concurrent per-component solves
// must merge to the same decomposition-driven partition as the serial
// component loop, including singleton components.
func TestDisconnectedComponentsParallelism(t *testing.T) {
	// Three islands: two random blobs and one isolated module.
	islands := DisconnectedNetlist(1, RandomNetlist(60, 120, 4, 5), RandomNetlist(40, 80, 4, 6))
	ref, err := spectral.PartitionCtx(context.Background(), islands, spectral.Options{K: 3, Method: spectral.MELO, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		p, err := spectral.PartitionCtx(context.Background(), islands, spectral.Options{K: 3, Method: spectral.MELO, Parallelism: w})
		if err != nil {
			t.Fatalf("parallelism %d: %v", w, err)
		}
		for i := range ref.Assign {
			if p.Assign[i] != ref.Assign[i] {
				t.Fatalf("parallelism %d changed module %d's cluster", w, i)
			}
		}
	}
}

// TestOrderModulesProcessDefaultEquivalence: OrderModulesWithSpectrum uses the
// process-wide parallel.Limit; changing the limit must not change the
// ordering.
func TestOrderModulesProcessDefaultEquivalence(t *testing.T) {
	defer parallel.SetLimit(0)
	h := RandomNetlist(180, 400, 5, 71)
	parallel.SetLimit(1)
	ref, err := spectral.OrderModulesWithSpectrum(context.Background(), h, nil, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		parallel.SetLimit(w)
		order, err := spectral.OrderModulesWithSpectrum(context.Background(), h, nil, 8, 0)
		if err != nil {
			t.Fatalf("limit %d: %v", w, err)
		}
		for i := range ref {
			if order[i] != ref[i] {
				t.Fatalf("limit %d: ordering diverges at position %d", w, i)
			}
		}
	}
}
