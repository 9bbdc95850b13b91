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
//     tridiagonal's eigenvectors (O(j²) at Krylov size j); the d Ritz
//     vectors it returns are rebuilt from a log of one more QL's
//     rotations (O(d·j²)), so the j×j eigenvector matrix is never built.
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
	return implicitQL(d, e, zt.Data, nil)
}

// tql2Row is tql2 accumulating a single row of the eigenvector matrix:
// on entry zr[i] holds element i of one row of the starting
// transformation (e_{n−1}ᵀ for the last row of a bare tridiagonal's
// eigenvectors), on return zr[i] is that row's component of the
// eigenvector for d[i]. It costs O(n²) instead of O(n³). The values in
// d and zr are bit-identical to a full tql2's: the d/e recurrence never
// reads z, and each row of z is rotated independently of the others.
func tql2Row(d, e, zr []float64) error {
	return implicitQL(d, e, zr, nil)
}

// implicitQL is the shared body of tql2 and tql2Row. zt is the
// transposed eigenvector matrix: len(d) rows of any common width (n
// for tql2, 1 for tql2Row, 0 for none); each Givens rotation of the QL
// sweep combines two of its rows. A non-nil log records every rotation
// applied, in order (see rotLog).
func implicitQL(d, e, zt []float64, log *rotLog) error {
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
			i := m - 1
			for ; i >= l; i-- {
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
				if log != nil {
					log.cs = append(log.cs, c, s)
				}
			}
			if log != nil && i < m-1 {
				// Rotations m−1 down to i+1 were applied, the underflow
				// break included.
				log.sweeps = append(log.sweeps, rotSweep{top: int32(m - 1), count: int32(m - 1 - i)})
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

// rotLog is the Givens rotations of one implicit-QL run, in the order
// they were applied: sweep after sweep, and within a sweep at rows top,
// top−1, …, top−count+1. The eigenvector matrix that run would have
// built is Z = G₁·G₂·…·G_R, so column p of it, the eigenvector for
// d[p], is G₁·(G₂·(…(G_R·e_p))): replaying the log backwards on e_p
// yields one eigenvector at O(R), where accumulating Z costs O(n·R).
type rotLog struct {
	cs     []float64 // c, s of each rotation, interleaved
	sweeps []rotSweep
}

// rotSweep bounds the rotations one QL sweep applied.
type rotSweep struct{ top, count int32 }

// replayTransposed applies the logged rotations, last first, to the
// columns of x: len(x)/w rows of width w, one column per vector, each
// rotation combining two rows. It is tql2's row update read backwards
// and transposed.
func (lg *rotLog) replayTransposed(x []float64, w int) {
	k := len(lg.cs)
	for sw := len(lg.sweeps) - 1; sw >= 0; sw-- {
		top := int(lg.sweeps[sw].top)
		for i := top - int(lg.sweeps[sw].count) + 1; i <= top; i++ {
			k -= 2
			c, s := lg.cs[k], lg.cs[k+1]
			xi, xn := x[i*w:(i+1)*w], x[(i+1)*w:(i+2)*w]
			for q, f := range xn {
				xn[q] = c*f - s*xi[q]
				xi[q] = c*xi[q] + s*f
			}
		}
	}
}

// unitRoundoff is the threshold used for off-diagonal negligibility tests.
const unitRoundoff = 1e-15

// tridiagWS is a reusable workspace for the tridiagonal
// eigendecompositions of the Lanczos iteration. Convergence checks,
// every checkEvery steps, run lastRow: Ritz values and the last row of
// the eigenvector matrix, O(j²), with no allocation once the workspace
// has grown to the Krylov budget. The step a solve returns from runs
// ritz: the same values and only the d wanted eigenvectors, rebuilt
// from a log of the QL's rotations at O(j²) plus O(d·j²), so no step of
// a solve is O(j³). The returned values ALIAS the workspace and are
// valid only until the next call — callers must copy anything that
// outlives it (ritzPairs copies into fresh result storage).
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

// ritz computes the eigenvalues of the tridiagonal, sorted ascending
// (bit-identical to lastRow's), and the eigenvectors of the want
// smallest: component k of the q-th smallest's eigenvector is
// vecs[k·want+q]. It runs the QL once more, logging its rotations, and
// replays them on the want unit vectors of the slots
// sortEigenAscending ranks first, so each vector is tql2's eigenvector
// up to rounding. The log and vecs are freshly allocated, sized once: a
// Lanczos solve calls ritz once, at the step it returns from.
func (ws *tridiagWS) ritz(diag, sub []float64, want int) (vals, vecs []float64, err error) {
	if err := ws.load(diag, sub); err != nil {
		return nil, nil, err
	}
	n := len(diag)
	// A QL of a Lanczos tridiagonal applies 1.02–1.05·n² rotations in
	// ~2n sweeps (the cold-flat circuits at n = 1000 and at full size);
	// a longer run grows the log by append.
	rots := n*n + n*n/10
	log := rotLog{cs: make([]float64, 0, 2*rots), sweeps: make([]rotSweep, 0, 2*n)}
	if err := implicitQL(ws.d, ws.e, nil, &log); err != nil {
		return nil, nil, err
	}
	// Rank the slots exactly as sortEigenAscending ranks the rows of a
	// full eigenvector matrix: carry each slot's index as its row.
	slots := ws.row[:n]
	for i := range slots {
		slots[i] = float64(i)
	}
	sortEigenAscending(ws.d, slots)
	vecs = make([]float64, n*want)
	for q := 0; q < want; q++ {
		vecs[int(slots[q])*want+q] = 1
	}
	log.replayTransposed(vecs, want)
	return ws.d, vecs, nil
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
