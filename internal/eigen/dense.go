package eigen

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/linalg"
	"repro/internal/trace"
)

// Decomposition holds the result of an eigendecomposition. Values are
// sorted ascending, Values[j] corresponding to the unit-norm eigenvector
// stored in column j of Vectors. For a graph Laplacian, Values[0] ≈ 0 and
// Vectors column 0 is (a rotation of) the constant vector.
type Decomposition struct {
	Values  []float64
	Vectors *linalg.Dense // n×d, column j is the eigenvector for Values[j]
}

// D returns the number of eigenpairs in the decomposition.
func (dec *Decomposition) D() int { return len(dec.Values) }

// Vector returns a copy of eigenvector j.
func (dec *Decomposition) Vector(j int) []float64 {
	n := dec.Vectors.Rows
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		v[i] = dec.Vectors.At(i, j)
	}
	return v
}

// Truncate returns a decomposition containing only the first d eigenpairs.
// It shares no storage with dec. Truncating beyond D() is an error.
func (dec *Decomposition) Truncate(d int) (*Decomposition, error) {
	if d < 0 || d > dec.D() {
		return nil, fmt.Errorf("eigen: cannot truncate decomposition of %d pairs to %d", dec.D(), d)
	}
	n := dec.Vectors.Rows
	v := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			v.Set(i, j, dec.Vectors.At(i, j))
		}
	}
	return &Decomposition{Values: linalg.CopyVec(dec.Values[:d]), Vectors: v}, nil
}

// SymEig computes the full eigendecomposition of the dense symmetric
// matrix a. The input is not modified. Eigenvalues are returned ascending
// with matching eigenvector columns.
func SymEig(a *linalg.Dense) (*Decomposition, error) {
	return SymEigCtx(context.Background(), a)
}

// SymEigCtx is SymEig with cooperative cancellation. The dense solver's
// two phases (Householder reduction, QL iteration) are direct rather
// than iterative-with-restarts, so cancellation is checked at the phase
// boundaries — the coarsest-grained checks in the pipeline, acceptable
// because the dense path is reserved for small matrices.
func SymEigCtx(ctx context.Context, a *linalg.Dense) (*Decomposition, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("eigen: SymEig requires a square matrix")
	}
	if !a.IsSymmetric(1e-10 * (1 + linalg.MaxAbs(a.Data))) {
		return nil, errors.New("eigen: SymEig requires a symmetric matrix")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := trace.Start(ctx, "eigen.dense", trace.Int("n", a.Rows))
	defer span.End()
	n := a.Rows
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, d, e)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	transposeSquare(z) // tql2 holds the eigenvectors as rows
	if err := tql2(d, e, z); err != nil {
		return nil, err
	}
	sortEigenAscending(d, z.Data)
	transposeSquare(z)
	return &Decomposition{Values: d, Vectors: z}, nil
}

// transposeSquare transposes the square matrix m in place.
func transposeSquare(m *linalg.Dense) {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Data[i*n+j], m.Data[j*n+i] = m.Data[j*n+i], m.Data[i*n+j]
		}
	}
}

// Residual returns the largest residual ‖A·u_j − λ_j·u_j‖₂ over the
// eigenpairs of dec, where A is given as an operator. It is a convenience
// for tests and for convergence verification.
func Residual(a linalg.Operator, dec *Decomposition) float64 {
	n := a.Dim()
	u := make([]float64, n)
	au := make([]float64, n)
	var worst float64
	for j := 0; j < dec.D(); j++ {
		for i := 0; i < n; i++ {
			u[i] = dec.Vectors.At(i, j)
		}
		a.MatVec(u, au)
		linalg.Axpy(-dec.Values[j], u, au)
		if r := linalg.Norm2(au); r > worst {
			worst = r
		}
	}
	return worst
}
