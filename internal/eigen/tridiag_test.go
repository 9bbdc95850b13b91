package eigen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// tridiagCase is one symmetric tridiagonal test matrix.
type tridiagCase struct {
	name      string
	diag, sub []float64
}

// tridiagCases covers the QL branches the last-row check must agree
// with the full QL on: random matrices, exact zeros on the
// off-diagonal (deflation into independent blocks), the r == 0
// underflow restart, n = 1, and tightly clustered eigenvalues.
func tridiagCases() []tridiagCase {
	rng := rand.New(rand.NewSource(7))
	var cases []tridiagCase
	random := func(n int) ([]float64, []float64) {
		diag, sub := make([]float64, n), make([]float64, n-1)
		for i := range diag {
			diag[i] = rng.NormFloat64()
		}
		for i := range sub {
			sub[i] = rng.NormFloat64()
		}
		return diag, sub
	}
	for _, n := range []int{2, 3, 5, 10, 37, 120, 301} {
		diag, sub := random(n)
		cases = append(cases, tridiagCase{"random", diag, sub})
	}
	for _, n := range []int{6, 40} {
		diag, sub := random(n)
		for i := 1; i < len(sub); i += 3 {
			sub[i] = 0
		}
		cases = append(cases, tridiagCase{"deflated", diag, sub})
	}
	// Denormal and huge entries drive a Givens rotation to r == 0, the
	// underflow branch that deflates and restarts the sweep.
	cases = append(cases, tridiagCase{"underflow",
		[]float64{0, 1e-300, 0, -1e-310, 0},
		[]float64{1, 1e-300, 1e160, -1e-310}})
	cases = append(cases, tridiagCase{"n=1", []float64{3.5}, nil})
	// Clustered: the Wilkinson matrix W21⁺ (eigenvalue pairs agreeing
	// to 1e-14), and a constant diagonal with tiny couplings.
	w := make([]float64, 21)
	for i := range w {
		w[i] = math.Abs(float64(i - 10))
	}
	cases = append(cases, tridiagCase{"wilkinson21", w, ones(20)})
	clustered := make([]float64, 50)
	tiny := make([]float64, 49)
	for i := range clustered {
		clustered[i] = 1 + 1e-13*rng.Float64()
	}
	for i := range tiny {
		tiny[i] = 1e-9 * rng.NormFloat64()
	}
	cases = append(cases, tridiagCase{"clustered", clustered, tiny})
	// Lanczos-like: the tridiagonal of a Laplacian solve, with the
	// tiny trailing betas of converged pairs.
	diag, sub := random(80)
	for i := range diag {
		diag[i] = math.Abs(diag[i]) * 4
	}
	for i := 60; i < len(sub); i++ {
		sub[i] *= 1e-12
	}
	cases = append(cases, tridiagCase{"converging", diag, sub})
	return cases
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// SameBits reports whether a and b hold the same float64 bit patterns
// (exported to the external corpus test).
func SameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// tql2Row's values and row equal the full tql2's values and last row
// bit for bit, before and after sorting — and the full tql2 equals the
// frozen At/Set port, so the transposed layout changed no arithmetic.
func TestTQL2RowMatchesFullTQL2(t *testing.T) {
	for _, c := range tridiagCases() {
		n := len(c.diag)
		load := func() ([]float64, []float64) {
			d := append([]float64(nil), c.diag...)
			e := append([]float64{0}, c.sub...)
			return d, e
		}

		dRef, eRef := load()
		z := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			z.Set(i, i, 1)
		}
		if err := referenceTQL2(dRef, eRef, z); err != nil {
			t.Fatalf("%s n=%d: reference tql2: %v", c.name, n, err)
		}

		dFull, eFull := load()
		zt := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			zt.Set(i, i, 1)
		}
		if err := tql2(dFull, eFull, zt); err != nil {
			t.Fatalf("%s n=%d: tql2: %v", c.name, n, err)
		}

		dRow, eRow := load()
		row := make([]float64, n)
		row[n-1] = 1
		if err := tql2Row(dRow, eRow, row); err != nil {
			t.Fatalf("%s n=%d: tql2Row: %v", c.name, n, err)
		}

		if !SameBits(dFull, dRef) || !SameBits(dRow, dRef) {
			t.Fatalf("%s n=%d: eigenvalues differ from the reference tql2", c.name, n)
		}
		if !SameBits(zt.Data, z.Transpose().Data) {
			t.Fatalf("%s n=%d: tql2 eigenvectors differ from the reference", c.name, n)
		}
		if !SameBits(row, z.Row(n-1)) {
			t.Fatalf("%s n=%d: tql2Row row differs from the last row of the full QL", c.name, n)
		}

		referenceSortEigenAscending(dRef, z)
		sortEigenAscending(dRow, row)
		if !SameBits(dRow, dRef) || !SameBits(row, z.Row(n-1)) {
			t.Fatalf("%s n=%d: sorted last row differs from the sorted full QL", c.name, n)
		}

		// The workspace entry points Lanczos calls agree too.
		var ws tridiagWS
		vals, last, err := ws.lastRow(c.diag, c.sub)
		if err != nil {
			t.Fatal(err)
		}
		if !SameBits(vals, dRef) || !SameBits(last, z.Row(n-1)) {
			t.Fatalf("%s n=%d: lastRow differs from the sorted full QL", c.name, n)
		}
	}
}

// ritzTol bounds how far a replayed eigenvector component may sit from
// the full QL's: the two multiply the same rotations in a different
// order, so they agree to rounding, not bit for bit.
const ritzTol = 1e-13

// ritz's values equal the sorted full tql2's bit for bit, and its
// vectors, replayed from the rotation log, match the sorted full QL's
// eigenvector rows within ritzTol — for every count of wanted pairs,
// so the slot ranking agrees with sortEigenAscending's at each prefix.
func TestRitzReplayMatchesFullTQL2(t *testing.T) {
	var ws tridiagWS
	for _, c := range tridiagCases() {
		n := len(c.diag)
		d := append([]float64(nil), c.diag...)
		e := append([]float64{0}, c.sub...)
		zt := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			zt.Set(i, i, 1)
		}
		if err := tql2(d, e, zt); err != nil {
			t.Fatalf("%s n=%d: tql2: %v", c.name, n, err)
		}
		sortEigenAscending(d, zt.Data)
		for _, want := range []int{1, (n + 1) / 2, n} {
			vals, vecs, err := ws.ritz(c.diag, c.sub, want)
			if err != nil {
				t.Fatalf("%s n=%d want=%d: %v", c.name, n, want, err)
			}
			if !SameBits(vals, d) {
				t.Fatalf("%s n=%d want=%d: values differ from the sorted full QL", c.name, n, want)
			}
			if len(vecs) != n*want {
				t.Fatalf("%s n=%d want=%d: %d components, want %d", c.name, n, want, len(vecs), n*want)
			}
			for q := 0; q < want; q++ {
				for k, z := range zt.Row(q) {
					if diff := math.Abs(vecs[k*want+q] - z); diff > ritzTol {
						t.Fatalf("%s n=%d want=%d: vector %d component %d off the full QL by %.3g",
							c.name, n, want, q, k, diff)
					}
				}
			}
		}
	}
}

// The dense solver moved to the transposed tql2 too: SymEig matches
// tred2 followed by the frozen tql2 and sort, bit for bit.
func TestSymEigMatchesFrozenTQL2(t *testing.T) {
	for _, a := range []*linalg.Dense{pathLaplacian(9), cycleLaplacian(12), starLaplacian(7), completeLaplacian(6)} {
		n := a.Rows
		z := a.Clone()
		d, e := make([]float64, n), make([]float64, n)
		tred2(z, d, e)
		if err := referenceTQL2(d, e, z); err != nil {
			t.Fatal(err)
		}
		referenceSortEigenAscending(d, z)
		got, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		if !SameBits(got.Values, d) || !SameBits(got.Vectors.Data, z.Data) {
			t.Fatalf("n=%d: SymEig differs from tred2 + frozen tql2", n)
		}
	}
}
