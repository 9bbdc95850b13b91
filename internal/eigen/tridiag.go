// Package eigen implements the eigensolvers used by the spectral
// partitioning pipeline:
//
//   - a dense symmetric solver (Householder tridiagonalization followed by
//     the implicit-shift QL iteration, the classic EISPACK tred2/tql2
//     pair), which returns the full spectrum and is used for small graphs
//     and for validating the sparse path, and
//
//   - a Lanczos solver with selective reorthogonalization that computes
//     the smallest d eigenpairs of a large sparse symmetric operator. This
//     is the stdlib-only substitute for the LASO2 library the paper used.
//     Its convergence checks read the Ritz values and the last row of the
//     tridiagonal's eigenvectors (O(j²) at Krylov size j); the full
//     eigenvectors (O(j³)) are computed once per solve.
//
// The package also provides a Jacobi-preconditioned conjugate-gradient
// solver for symmetric positive-definite systems, used by PARABOLI's
// quadratic placement (internal/paraboli).
package eigen

import (
	"errors"
	"math"

	"repro/internal/linalg"
)

// ErrNoConvergence is returned when an iterative eigenvalue computation
// fails to converge within its iteration budget.
var ErrNoConvergence = errors.New("eigen: eigenvalue iteration did not converge")

// tred2 reduces the symmetric matrix held in z (n×n, overwritten) to
// tridiagonal form with diagonal d and subdiagonal e (e[0] unused),
// accumulating the orthogonal transformation in z so that on return
// z^T · A · z = tridiag(d, e).
//
// This is a direct port of the EISPACK/Numerical-Recipes tred2 routine.
func tred2(z *linalg.Dense, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := z.At(i, k) / scale
					z.Set(i, k, v)
					h += v * v
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Add(j, k, -(f*e[k] + g*z.At(i, k)))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Add(k, j, -g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// tql2 computes the eigenvalues and eigenvectors of a symmetric
// tridiagonal matrix with diagonal d and subdiagonal e (e[0] unused) by
// the implicit-shift QL method. The eigenvector matrix z is held
// transposed, so every rotation updates two contiguous rows: on entry
// row i of zt holds column i of tred2's transformation (the identity
// for a bare tridiagonal); on return d holds the eigenvalues (unsorted)
// and row i of zt the eigenvector for d[i].
//
// This is a direct port of the EISPACK tql2 routine.
func tql2(d, e []float64, zt *linalg.Dense) error {
	return implicitQL(d, e, zt.Data)
}

// tql2Row is tql2 accumulating a single row of the eigenvector matrix:
// on entry zr[i] holds element i of one row of the starting
// transformation (e_{n−1}ᵀ for the last row of a bare tridiagonal's
// eigenvectors), on return zr[i] is that row's component of the
// eigenvector for d[i]. It costs O(n²) instead of O(n³). The values in
// d and zr are bit-identical to a full tql2's: the d/e recurrence never
// reads z, and each row of z is rotated independently of the others.
func tql2Row(d, e, zr []float64) error {
	return implicitQL(d, e, zr)
}

// implicitQL is the shared body of tql2 and tql2Row. zt is the
// transposed eigenvector matrix: len(d) rows of any common width (n
// for tql2, 1 for tql2Row); each Givens rotation of the QL sweep
// combines two of its rows.
func implicitQL(d, e, zt []float64) error {
	n := len(d)
	if n == 1 {
		return nil
	}
	w := len(zt) / n
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= unitRoundoff*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			brokeEarly := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow: deflate and restart this l.
					d[i+1] -= p
					e[m] = 0
					brokeEarly = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				zi, zn := zt[i*w:(i+1)*w], zt[(i+1)*w:(i+2)*w]
				for k, f := range zn {
					zn[k] = s*zi[k] + c*f
					zi[k] = c*zi[k] - s*f
				}
			}
			if brokeEarly {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// unitRoundoff is the threshold used for off-diagonal negligibility tests.
const unitRoundoff = 1e-15

// tridiagWS is a reusable workspace for the tridiagonal
// eigendecompositions of the Lanczos iteration. Convergence checks,
// every checkEvery steps, run lastRow: Ritz values and the last row of
// the eigenvector matrix, O(j²), with no allocation once the workspace
// has grown to the Krylov budget. The full eigenvector matrix, O(j³),
// is built by eig only for the Ritz vectors a solve returns. The
// returned slices ALIAS the workspace and are valid only until the
// next call — callers must copy anything that outlives it (ritzPairs
// copies into fresh result storage).
type tridiagWS struct {
	d, e, row []float64
}

// load copies the tridiagonal with diagonal diag and subdiagonal sub
// (len(sub) == len(diag)-1) into the workspace's d and e.
func (ws *tridiagWS) load(diag, sub []float64) error {
	n := len(diag)
	if len(sub) != n-1 && !(n == 0 && len(sub) == 0) {
		return errors.New("eigen: subdiagonal must have length n-1")
	}
	// Grow geometrically: successive convergence checks arrive with n
	// increasing by checkEvery, and per-check reallocation would defeat
	// the workspace (O(checks) allocations instead of O(log)).
	if cap(ws.d) < n {
		ws.d = make([]float64, 0, 2*n)
		ws.e = make([]float64, 0, 2*n)
		ws.row = make([]float64, 0, 2*n)
	}
	ws.d = ws.d[:n]
	ws.e = ws.e[:n]
	copy(ws.d, diag)
	if n > 0 {
		ws.e[0] = 0
		copy(ws.e[1:], sub)
	}
	return nil
}

// lastRow computes the eigenvalues of the tridiagonal, sorted
// ascending, and the last component of each matching eigenvector —
// exactly vals and the last row of what eig returns, at O(n²).
func (ws *tridiagWS) lastRow(diag, sub []float64) (vals, last []float64, err error) {
	if err := ws.load(diag, sub); err != nil {
		return nil, nil, err
	}
	n := len(diag)
	ws.row = ws.row[:n]
	linalg.Zero(ws.row)
	ws.row[n-1] = 1
	if err := tql2Row(ws.d, ws.e, ws.row); err != nil {
		return nil, nil, err
	}
	sortEigenAscending(ws.d, ws.row)
	return ws.d, ws.row, nil
}

// eig computes all eigenvalues of the tridiagonal, sorted ascending,
// and the matching eigenvectors as the rows of vecs. The eigenvector
// matrix is freshly allocated, sized exactly: a Lanczos solve calls eig
// once, at the step it returns from.
func (ws *tridiagWS) eig(diag, sub []float64) (vals []float64, vecs *linalg.Dense, err error) {
	if err := ws.load(diag, sub); err != nil {
		return nil, nil, err
	}
	n := len(diag)
	zt := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		zt.Data[i*n+i] = 1
	}
	if err := tql2(ws.d, ws.e, zt); err != nil {
		return nil, nil, err
	}
	sortEigenAscending(ws.d, zt.Data)
	return ws.d, zt, nil
}

// sortEigenAscending sorts eigenvalues in d ascending and permutes the
// rows of the transposed eigenvector matrix zt (len(d) rows of any
// common width, as for implicitQL) accordingly (selection sort; n is
// small relative to the QL work already done).
func sortEigenAscending(d, zt []float64) {
	n := len(d)
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			w := len(zt) / n
			zi, zk := zt[i*w:(i+1)*w], zt[k*w:(k+1)*w]
			for r := range zi {
				zi[r], zk[r] = zk[r], zi[r]
			}
		}
	}
}
