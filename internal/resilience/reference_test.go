package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// retiredDispatcher is a frozen copy of the second d-smallest dispatcher
// the spectral methods outside MELO/RSB used before SolveEigen became
// the only one: dense below 257 (or d > n/3), else Lanczos from seed 1
// with the Krylov cap doubled until it converges or reaches n.
func retiredDispatcher(ctx context.Context, a linalg.Operator, d int, tol float64) (*eigen.Decomposition, error) {
	n := a.Dim()
	if d > n {
		return nil, fmt.Errorf("eigen: requested %d eigenpairs of a %d-dimensional operator", d, n)
	}
	if n <= 256 || d > n/3 {
		dec, err := eigen.SymEigCtx(ctx, eigen.Densify(a))
		if err != nil {
			return nil, err
		}
		return dec.Truncate(d)
	}
	dim := 12*d + 100
	if dim < 300 {
		dim = 300
	}
	for {
		if dim > n {
			dim = n
		}
		dec, err := eigen.LanczosCtx(ctx, a, d, &eigen.LanczosOptions{Tol: tol, MaxDim: dim})
		if err == nil {
			return dec, nil
		}
		if !errors.Is(err, eigen.ErrNoConvergence) || dim >= n {
			return nil, err
		}
		dim *= 2
	}
}

// shiftedNegAdj applies x -> c·x − A·x, the operator shape Barnes's
// method hands the ladder: not a CSR, so Densify must probe it column
// by column and Lanczos sees an opaque MatVec.
type shiftedNegAdj struct {
	a *linalg.CSR
	c float64
}

func (s *shiftedNegAdj) Dim() int { return s.a.Dim() }

func (s *shiftedNegAdj) MatVec(x, y []float64) {
	s.a.MatVec(x, y)
	for i := range y {
		y[i] = s.c*x[i] - y[i]
	}
}

// TestSolveEigenMatchesRetiredDispatcher pins the migration of every
// caller onto the ladder: on the common path SolveEigen must return the
// retired dispatcher's values and vectors bit for bit, in both regimes,
// at both tolerances callers use, and for a non-CSR operator.
func TestSolveEigenMatchesRetiredDispatcher(t *testing.T) {
	operators := func(n int) map[string]linalg.Operator {
		g := graph.RandomConnected(n, 3*n, int64(n))
		var c float64
		for i := 0; i < n; i++ {
			if d := g.Degree(i); d > c {
				c = d
			}
		}
		return map[string]linalg.Operator{
			"laplacian":       g.Laplacian(),
			"shifted-neg-adj": &shiftedNegAdj{a: g.Adjacency(), c: c},
		}
	}
	both := []float64{1e-6, 1e-9}
	for _, tc := range []struct {
		regime string
		n, d   int
		tols   []float64
	}{
		{"dense-direct", 120, 4, both},
		// Above the dense-direct floor but d > n/3: still dense. The dense
		// solve ignores tol, and at this size it is the slow case.
		{"dense-wide-d", 258, 87, both[:1]},
		{"lanczos", 300, 3, both},
		{"lanczos", 400, 6, both},
	} {
		for name, op := range operators(tc.n) {
			for _, tol := range tc.tols {
				label := fmt.Sprintf("%s/%s/n=%d/d=%d/tol=%g", tc.regime, name, tc.n, tc.d, tol)
				want, err := retiredDispatcher(context.Background(), op, tc.d, tol)
				if err != nil {
					t.Fatalf("%s: retired dispatcher: %v", label, err)
				}
				got, err := SolveEigen(context.Background(), op, tc.d, EigenPolicy{Tol: tol, MinD: tc.d})
				if err != nil {
					t.Fatalf("%s: SolveEigen: %v", label, err)
				}
				if got.Attempts != 1 || got.Degraded || got.DenseFallback {
					t.Fatalf("%s: left the common path: %v", label, got.Notes)
				}
				if !equalBits(got.Dec.Values, want.Values) {
					t.Fatalf("%s: values %v, retired %v", label, got.Dec.Values, want.Values)
				}
				if got.Dec.Vectors.Rows != want.Vectors.Rows || !equalBits(got.Dec.Vectors.Data, want.Vectors.Data) {
					t.Fatalf("%s: eigenvectors differ from the retired dispatcher's", label)
				}
			}
		}
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
