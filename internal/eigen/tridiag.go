// Package eigen implements the eigensolvers used by the spectral
// partitioning pipeline:
//
//   - a dense symmetric solver (Householder tridiagonalization followed by
//     the implicit-shift QL iteration, the classic EISPACK tred2/tql2
//     pair), which returns the full spectrum and is used for small graphs
//     and for validating the sparse path, and
//
//   - a Lanczos solver with full reorthogonalization that computes the
//     smallest d eigenpairs of a large sparse symmetric operator. This is
//     the stdlib-only substitute for the LASO2 library the paper used.
//
// The package also provides a Jacobi-preconditioned conjugate-gradient
// solver for symmetric positive-definite systems, used by the analytical
// placement baseline.
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
// the implicit-shift QL method. On entry z holds the transformation from
// tred2 (or the identity); on return d holds the eigenvalues (unsorted)
// and the columns of z the corresponding eigenvectors.
//
// This is a direct port of the EISPACK tql2 routine.
func tql2(d, e []float64, z *linalg.Dense) error {
	n := len(d)
	if n == 1 {
		return nil
	}
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
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
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
// eigendecompositions the Lanczos convergence checks run every
// checkEvery steps. It exists so the Lanczos iteration loop performs no
// per-check allocations once the workspace has grown to the Krylov
// budget: the returned slices and matrix ALIAS the workspace and are
// valid only until the next eig call — callers must copy anything that
// outlives the check (ritzPairs copies into fresh result storage).
type tridiagWS struct {
	d, e []float64
	zbuf []float64
	z    linalg.Dense
}

// eig computes all eigenvalues and eigenvectors of the symmetric
// tridiagonal matrix with diagonal diag and subdiagonal sub
// (len(sub) == len(diag)-1) into the reused workspace, sorted ascending.
func (ws *tridiagWS) eig(diag, sub []float64) (vals []float64, vecs *linalg.Dense, err error) {
	n := len(diag)
	if len(sub) != n-1 && !(n == 0 && len(sub) == 0) {
		return nil, nil, errors.New("eigen: subdiagonal must have length n-1")
	}
	// Grow geometrically: successive convergence checks arrive with n
	// increasing by checkEvery, and per-check reallocation would defeat
	// the workspace (O(checks) allocations instead of O(log)).
	if cap(ws.d) < n {
		ws.d = make([]float64, 0, 2*n)
		ws.e = make([]float64, 0, 2*n)
	}
	ws.d = ws.d[:n]
	ws.e = ws.e[:n]
	copy(ws.d, diag)
	ws.e[0] = 0
	copy(ws.e[1:], sub)
	if cap(ws.zbuf) < n*n {
		ws.zbuf = make([]float64, 4*n*n)
	}
	ws.z = linalg.Dense{Rows: n, Cols: n, Data: ws.zbuf[:n*n]}
	linalg.Zero(ws.z.Data)
	for i := 0; i < n; i++ {
		ws.z.Set(i, i, 1)
	}
	if err := tql2(ws.d, ws.e, &ws.z); err != nil {
		return nil, nil, err
	}
	sortEigenAscending(ws.d, &ws.z)
	return ws.d, &ws.z, nil
}

// sortEigenAscending sorts eigenvalues in d ascending and permutes the
// columns of z accordingly (selection sort; n is small relative to the
// O(n^3) work already done).
func sortEigenAscending(d []float64, z *linalg.Dense) {
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
			if z != nil {
				for r := 0; r < n; r++ {
					vi, vk := z.At(r, i), z.At(r, k)
					z.Set(r, i, vk)
					z.Set(r, k, vi)
				}
			}
		}
	}
}
