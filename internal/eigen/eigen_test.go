package eigen

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// pathLaplacian returns the Laplacian of the unweighted path graph on n
// vertices, whose eigenvalues are 2−2cos(πk/n) = 4·sin²(πk/2n), k=0..n−1.
func pathLaplacian(n int) *linalg.Dense {
	m := linalg.NewDense(n, n)
	for i := 0; i < n-1; i++ {
		m.Add(i, i, 1)
		m.Add(i+1, i+1, 1)
		m.Add(i, i+1, -1)
		m.Add(i+1, i, -1)
	}
	return m
}

// cycleLaplacian returns the Laplacian of the n-cycle, eigenvalues
// 2−2cos(2πk/n).
func cycleLaplacian(n int) *linalg.Dense {
	m := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		m.Add(i, i, 1)
		m.Add(j, j, 1)
		m.Add(i, j, -1)
		m.Add(j, i, -1)
	}
	return m
}

// completeLaplacian returns the Laplacian of K_n: eigenvalues 0 and n
// (n−1 times).
func completeLaplacian(n int) *linalg.Dense {
	m := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Set(i, j, float64(n-1))
			} else {
				m.Set(i, j, -1)
			}
		}
	}
	return m
}

// starLaplacian returns the Laplacian of the star K_{1,n−1}: eigenvalues
// 0, 1 (n−2 times), n.
func starLaplacian(n int) *linalg.Dense {
	m := linalg.NewDense(n, n)
	for i := 1; i < n; i++ {
		m.Add(0, 0, 1)
		m.Add(i, i, 1)
		m.Add(0, i, -1)
		m.Add(i, 0, -1)
	}
	return m
}

func pathEigenvalues(n int) []float64 {
	v := make([]float64, n)
	for k := 0; k < n; k++ {
		s := math.Sin(math.Pi * float64(k) / (2 * float64(n)))
		v[k] = 4 * s * s
	}
	return v
}

func TestSymEigPathGraph(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10, 37} {
		dec, err := SymEig(pathLaplacian(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := pathEigenvalues(n)
		for k := 0; k < n; k++ {
			if math.Abs(dec.Values[k]-want[k]) > 1e-9 {
				t.Errorf("n=%d: eigenvalue %d = %v, want %v", n, k, dec.Values[k], want[k])
			}
		}
		if r := Residual(pathLaplacian(n), dec); r > 1e-9 {
			t.Errorf("n=%d: residual %v too large", n, r)
		}
	}
}

func TestSymEigCompleteGraph(t *testing.T) {
	n := 12
	dec, err := SymEig(completeLaplacian(n))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]) > 1e-9 {
		t.Errorf("smallest eigenvalue %v, want 0", dec.Values[0])
	}
	for k := 1; k < n; k++ {
		if math.Abs(dec.Values[k]-float64(n)) > 1e-8 {
			t.Errorf("eigenvalue %d = %v, want %d", k, dec.Values[k], n)
		}
	}
}

func TestSymEigStarGraph(t *testing.T) {
	n := 9
	dec, err := SymEig(starLaplacian(n))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]) > 1e-9 {
		t.Errorf("λ_1 = %v, want 0", dec.Values[0])
	}
	for k := 1; k < n-1; k++ {
		if math.Abs(dec.Values[k]-1) > 1e-9 {
			t.Errorf("λ_%d = %v, want 1", k+1, dec.Values[k])
		}
	}
	if math.Abs(dec.Values[n-1]-float64(n)) > 1e-9 {
		t.Errorf("λ_n = %v, want %d", dec.Values[n-1], n)
	}
}

func TestSymEigOrthonormalVectors(t *testing.T) {
	n := 20
	rng := rand.New(rand.NewSource(7))
	a := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	dec, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			dot := 0.0
			for r := 0; r < n; r++ {
				dot += dec.Vectors.At(r, i) * dec.Vectors.At(r, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("columns %d,%d: dot = %v, want %v", i, j, dot, want)
			}
		}
	}
	if r := Residual(a, dec); r > 1e-8 {
		t.Errorf("residual %v too large", r)
	}
}

func TestSymEigRejectsNonSymmetric(t *testing.T) {
	a := linalg.NewDense(2, 2)
	a.Set(0, 1, 1)
	if _, err := SymEig(a); err == nil {
		t.Fatal("expected error for non-symmetric input")
	}
	b := linalg.NewDense(2, 3)
	if _, err := SymEig(b); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSymTridiagEig(t *testing.T) {
	// Tridiagonal form of the path Laplacian on 5 vertices is itself a
	// valid test input via diag/sub of a known matrix: use diag=2, sub=-1
	// (the Dirichlet Laplacian), eigenvalues 2−2cos(kπ/(n+1)), k=1..n.
	n := 8
	diag := make([]float64, n)
	sub := make([]float64, n-1)
	for i := range diag {
		diag[i] = 2
	}
	for i := range sub {
		sub[i] = -1
	}
	var ws tridiagWS
	vals, vecs, err := ws.eig(diag, sub)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(vals[k-1]-want) > 1e-10 {
			t.Errorf("λ_%d = %v, want %v", k, vals[k-1], want)
		}
	}
	if vecs == nil || vecs.Rows != n || vecs.Cols != n {
		t.Fatal("eigenvector matrix has wrong shape")
	}
}

func TestTruncate(t *testing.T) {
	dec, err := SymEig(pathLaplacian(10))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dec.Truncate(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.D() != 3 || tr.Vectors.Cols != 3 || tr.Vectors.Rows != 10 {
		t.Fatal("Truncate shape wrong")
	}
	for j := 0; j < 3; j++ {
		if tr.Values[j] != dec.Values[j] {
			t.Fatal("Truncate changed eigenvalues")
		}
	}
	if _, err := dec.Truncate(11); err == nil {
		t.Fatal("expected error truncating beyond D()")
	}
}

func TestLanczosMatchesDense(t *testing.T) {
	// Random sparse Laplacian-like matrix, large enough that the
	// eigensolve ladder would take the Lanczos path.
	n := 400
	rng := rand.New(rand.NewSource(3))
	var ts []linalg.Triplet
	deg := make([]float64, n)
	addEdge := func(i, j int, w float64) {
		ts = append(ts, linalg.Triplet{Row: i, Col: j, Val: -w}, linalg.Triplet{Row: j, Col: i, Val: -w})
		deg[i] += w
		deg[j] += w
	}
	for i := 0; i < n-1; i++ {
		addEdge(i, i+1, 1) // path backbone keeps it connected
	}
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			addEdge(i, j, 1+rng.Float64())
		}
	}
	for i := 0; i < n; i++ {
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: deg[i]})
	}
	lap := linalg.NewCSR(n, n, ts)

	d := 6
	sparse, err := Lanczos(lap, d, &LanczosOptions{Tol: 1e-9, MaxDim: 400})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := SymEig(lap.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		if math.Abs(sparse.Values[j]-dense.Values[j]) > 1e-7*(1+math.Abs(dense.Values[j])) {
			t.Errorf("eigenvalue %d: Lanczos %v vs dense %v", j, sparse.Values[j], dense.Values[j])
		}
	}
	if r := Residual(lap, sparse); r > 1e-6 {
		t.Errorf("Lanczos residual %v too large", r)
	}
}

func TestLanczosDisconnectedGraph(t *testing.T) {
	// Two disjoint paths: eigenvalue 0 has multiplicity 2; the restart
	// logic must find both zero modes.
	n := 60
	m := linalg.NewDense(n, n)
	for i := 0; i < n/2-1; i++ {
		m.Add(i, i, 1)
		m.Add(i+1, i+1, 1)
		m.Add(i, i+1, -1)
		m.Add(i+1, i, -1)
	}
	for i := n / 2; i < n-1; i++ {
		m.Add(i, i, 1)
		m.Add(i+1, i+1, 1)
		m.Add(i, i+1, -1)
		m.Add(i+1, i, -1)
	}
	dec, err := Lanczos(m, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Values[0]) > 1e-8 || math.Abs(dec.Values[1]) > 1e-8 {
		t.Errorf("expected double zero eigenvalue, got %v", dec.Values[:3])
	}
	if dec.Values[2] < 1e-6 {
		t.Errorf("third eigenvalue should be positive, got %v", dec.Values[2])
	}
}

func TestLanczosArgumentChecks(t *testing.T) {
	m := pathLaplacian(5)
	if _, err := Lanczos(m, 0, nil); err == nil {
		t.Fatal("expected error for d=0")
	}
	if _, err := Lanczos(m, 6, nil); err == nil {
		t.Fatal("expected error for d>n")
	}
}

func TestCGSolvesSPDSystem(t *testing.T) {
	// Anchored path Laplacian: L + I is SPD.
	n := 50
	a := pathLaplacian(n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	rng := rand.New(rand.NewSource(11))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MatVec(xTrue, b)
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = a.At(i, i)
	}
	x, iters, err := CGCtx(context.Background(), a, b, nil, diag, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Error("CG reported zero iterations for nontrivial system")
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-7 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := pathLaplacian(5)
	for i := 0; i < 5; i++ {
		a.Add(i, i, 1)
	}
	x, _, err := CGCtx(context.Background(), a, make([]float64, 5), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.Norm2(x) != 0 {
		t.Error("zero RHS should give zero solution")
	}
}

func TestCGRejectsIndefinite(t *testing.T) {
	a := linalg.NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	if _, _, err := CGCtx(context.Background(), a, []float64{1, 1}, nil, nil, nil); err == nil {
		t.Fatal("expected error for indefinite operator")
	}
}

func TestDensify(t *testing.T) {
	c := linalg.NewCSR(3, 3, []linalg.Triplet{{Row: 0, Col: 1, Val: 2}, {Row: 2, Col: 0, Val: -1}})
	d := Densify(c)
	if d.At(0, 1) != 2 || d.At(2, 0) != -1 || d.At(1, 1) != 0 {
		t.Fatalf("densify wrong: %v", d.Data)
	}
}

// TestResidualTable drives Residual through its edge cases: an empty
// decomposition (d = 0) has no pairs and must report a zero residual; a
// full dense decomposition (d = n) of an exact solve is at numerical
// zero; a deliberately wrong eigenvalue shows up as exactly the norm of
// the perturbation it induces.
func TestResidualTable(t *testing.T) {
	lap := pathLaplacian(8)
	full, err := SymEig(Densify(lap))
	if err != nil {
		t.Fatal(err)
	}
	broken, err := full.Truncate(3)
	if err != nil {
		t.Fatal(err)
	}
	broken = &Decomposition{Values: append([]float64(nil), broken.Values...), Vectors: broken.Vectors}
	broken.Values[1] += 0.5 // residual becomes ‖0.5·u‖ = 0.5 exactly (u is unit)
	cases := []struct {
		name string
		dec  *Decomposition
		min  float64
		max  float64
	}{
		{"d=0 empty", &Decomposition{Values: nil, Vectors: linalg.NewDense(8, 0)}, 0, 0},
		{"d=n full dense solve", full, 0, 1e-8},
		{"perturbed eigenvalue", broken, 0.5 - 1e-9, 0.5 + 1e-9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Residual(lap, tc.dec)
			if r < tc.min || r > tc.max {
				t.Fatalf("Residual = %v, want in [%v, %v]", r, tc.min, tc.max)
			}
		})
	}
}

// TestTruncateTable covers Truncate's boundary sizes: 0 pairs, all
// pairs, and out-of-range requests.
func TestTruncateTable(t *testing.T) {
	lap := pathLaplacian(6)
	full, err := SymEig(Densify(lap))
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := full.Truncate(0); err != nil || dec.D() != 0 {
		t.Fatalf("Truncate(0): dec.D()=%v err=%v, want empty decomposition", dec.D(), err)
	}
	if dec, err := full.Truncate(full.D()); err != nil || dec.D() != full.D() {
		t.Fatalf("Truncate(n) failed: %v", err)
	}
	if _, err := full.Truncate(full.D() + 1); err == nil {
		t.Fatal("Truncate beyond capacity accepted")
	}
	if _, err := full.Truncate(-1); err == nil {
		t.Fatal("Truncate(-1) accepted")
	}
}
