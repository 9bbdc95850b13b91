package eigen

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// TestQuickEigenvalueSumEqualsTrace: Σλ = trace(A) for random symmetric
// matrices.
func TestQuickEigenvalueSumEqualsTrace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
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
			return false
		}
		sum := linalg.Sum(dec.Values)
		return math.Abs(sum-a.Trace()) < 1e-8*(1+math.Abs(sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickEigenvectorsReconstruct: U·Λ·Uᵀ reproduces A.
func TestQuickEigenvectorsReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
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
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += dec.Vectors.At(i, k) * dec.Values[k] * dec.Vectors.At(j, k)
				}
				if math.Abs(s-a.At(i, j)) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickEigenvaluesSorted: SymEig always returns ascending values.
func TestQuickEigenvaluesSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
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
			return false
		}
		for j := 1; j < n; j++ {
			if dec.Values[j] < dec.Values[j-1]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCGMatchesDenseSolve: CG solves random SPD systems (AᵀA + I).
func TestQuickCGMatchesDenseSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		raw := linalg.NewDense(n, n)
		for i := range raw.Data {
			raw.Data[i] = rng.NormFloat64()
		}
		spd := linalg.Mul(raw.Transpose(), raw)
		for i := 0; i < n; i++ {
			spd.Add(i, i, 1)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		spd.MatVec(xTrue, b)
		diag := make([]float64, n)
		for i := range diag {
			diag[i] = spd.At(i, i)
		}
		x, _, err := CGCtx(context.Background(), spd, b, nil, diag, &CGOptions{Tol: 1e-12, MaxIter: 50 * n})
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-5*(1+math.Abs(xTrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
