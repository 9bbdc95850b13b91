package eigen

import (
	"context"
	"errors"
	"math"

	"repro/internal/linalg"
)

// CGOptions configures the conjugate-gradient solver. The zero value
// selects sensible defaults.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖. Default 1e-10.
	Tol float64
	// MaxIter caps the number of iterations. Default 10·n.
	MaxIter int
}

// CGCtx solves the symmetric positive-definite system a·x = b with the
// Jacobi-preconditioned conjugate-gradient method. x0 provides the
// starting guess (may be nil for zero). It returns the solution and the
// number of iterations performed.
//
// PARABOLI's quadratic placement (internal/paraboli) solves anchored
// Laplacian systems (Laplacian plus a positive diagonal), which are SPD,
// with this routine.
// ctx is checked at every iteration boundary; a cancelled context aborts
// the solve within one iteration, returning ctx.Err().
func CGCtx(ctx context.Context, a linalg.Operator, b, x0 []float64, diag []float64, opts *CGOptions) ([]float64, int, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, 0, errors.New("eigen: CG right-hand side has wrong length")
	}
	tol := 1e-10
	maxIter := 10 * n
	if opts != nil {
		if opts.Tol > 0 {
			tol = opts.Tol
		}
		if opts.MaxIter > 0 {
			maxIter = opts.MaxIter
		}
	}
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	r := make([]float64, n)
	ax := make([]float64, n)
	a.MatVec(x, ax)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	bnorm := linalg.Norm2(b)
	if bnorm == 0 {
		return make([]float64, n), 0, nil
	}
	// Already converged at the starting guess. Without this check a
	// (near-)exact x0 makes the first search direction (near-)zero, and
	// p'Ap ≤ 0 is then misreported as "operator not positive definite" —
	// exactly what happens in reanchoring placement rounds whose previous
	// solution already solves the new system.
	if linalg.Norm2(r) <= tol*bnorm {
		return x, 0, nil
	}

	// Jacobi preconditioner: z = r ./ diag. A nil or non-positive diagonal
	// entry falls back to the identity for that coordinate.
	prec := func(r, z []float64) {
		for i := range r {
			if diag != nil && diag[i] > 0 {
				z[i] = r[i] / diag[i]
			} else {
				z[i] = r[i]
			}
		}
	}

	z := make([]float64, n)
	prec(r, z)
	p := linalg.CopyVec(z)
	rz := linalg.Dot(r, z)
	ap := make([]float64, n)

	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			return nil, it - 1, err
		}
		a.MatVec(p, ap)
		pap := linalg.Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return nil, it, errors.New("eigen: CG operator is not positive definite")
		}
		alpha := rz / pap
		linalg.Axpy(alpha, p, x)
		linalg.Axpy(-alpha, ap, r)
		if linalg.Norm2(r) <= tol*bnorm {
			return x, it, nil
		}
		prec(r, z)
		rzNew := linalg.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, maxIter, ErrNoConvergence
}
