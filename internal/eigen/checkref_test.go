package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// This file is a frozen copy of the Lanczos solver as it stood before
// the convergence check moved to the last eigenvector row: every check
// runs a full tridiagonal QL with eigenvectors, through Dense.At/Set.
// The corpus tests in checkref_corpus_test.go hold the production
// solver to it: the same stopping step and the same eigenpairs, bit for
// bit. Only the helpers that check left untouched (the ω-recurrence,
// the start vectors, the options) are shared.

// ReferenceLanczos is the frozen LanczosCtx (tracing dropped), exported
// to the external corpus test. It returns the decomposition, the error,
// and the number of MatVecs the solve ran — the step it stopped at,
// restarts included.
func ReferenceLanczos(ctx context.Context, a linalg.Operator, d int, opts *LanczosOptions) (*Decomposition, int, error) {
	n := a.Dim()
	if d <= 0 {
		return nil, 0, errors.New("eigen: Lanczos requires d >= 1")
	}
	if d > n {
		return nil, 0, fmt.Errorf("eigen: cannot compute %d eigenpairs of a %d-dimensional operator", d, n)
	}
	o := opts.withDefaults(n, d)
	if o.MaxDim < d {
		o.MaxDim = d
	}
	var directive FaultDirective
	if o.Fault != nil {
		dir, err := o.Fault.StartAttempt()
		if err != nil {
			return nil, 0, err
		}
		directive = dir
	}
	matvecs := 0
	rng := rand.New(rand.NewSource(o.Seed))
	a = linalg.Par(a, o.Workers)
	ar := linalg.NewArena(n)

	basis := make([][]float64, 0, o.MaxDim)
	alphas := make([]float64, 0, o.MaxDim)
	betas := make([]float64, 0, o.MaxDim)

	v := ar.Vec()
	if !seedUnitInto(o.InitialVector, v) {
		v = randomUnitInto(rng, v)
	}
	w := ar.Vec()

	var omPrev, omCur, omNext []float64
	forceReorth := false
	if o.Reorth == ReorthSelective {
		omPrev = make([]float64, 0, o.MaxDim+1)
		omCur = append(make([]float64, 0, o.MaxDim+1), 1)
		omNext = make([]float64, 0, o.MaxDim+1)
	}
	coef := make([]float64, o.MaxDim)
	var ws referenceTridiagWS

	scale := 1.0

	for len(basis) < o.MaxDim {
		if err := ctx.Err(); err != nil {
			return nil, matvecs, err
		}
		basis = append(basis, v)
		a.MatVec(v, w)
		matvecs++
		if o.Fault != nil {
			o.Fault.AtStep(len(basis), w)
		}
		alpha := linalg.Dot(v, w)
		alphas = append(alphas, alpha)
		linalg.Axpy(-alpha, v, w)
		if len(basis) >= 2 {
			linalg.Axpy(-betas[len(betas)-1], basis[len(basis)-2], w)
		}
		var beta float64
		if o.Reorth == ReorthFull {
			linalg.OrthogonalizeBlockBuf(w, basis, o.Workers, coef)
			beta = linalg.Norm2(w)
		} else {
			beta = linalg.Norm2(w)
			doFull := forceReorth
			if beta > lanczosTiny*scale {
				omNext = omegaStep(omNext[:0], omCur, omPrev, alphas, betas, alpha, beta, scale)
				if !doFull {
					for _, om := range omNext[:len(basis)] {
						if math.Abs(om) > lanczosThreshold {
							doFull = true
							break
						}
					}
					forceReorth = doFull
				} else {
					forceReorth = false
				}
			} else {
				doFull = false
				forceReorth = false
			}
			if doFull {
				linalg.OrthogonalizeBlockBuf(w, basis, o.Workers, coef)
				beta = linalg.Norm2(w)
				for i := range omNext[:len(basis)] {
					omNext[i] = lanczosEps
				}
			}
		}
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(beta) || math.IsInf(beta, 0) {
			return nil, matvecs, fmt.Errorf("eigen: lanczos step %d produced alpha=%v beta=%v: %w",
				len(basis), alpha, beta, ErrBreakdown)
		}

		j := len(basis)
		invariant := beta <= 1e-12*scale
		if j >= d && (j%checkEvery == 0 || j == o.MaxDim || j == n || (invariant && j+1 >= n)) {
			vals, svecs, err := ws.eig(alphas, betas[:j-1])
			if err != nil {
				return nil, matvecs, err
			}
			if m := vals[len(vals)-1]; m > scale {
				scale = m
			}
			if !directive.Stall && (j == n || referenceConvergedPrefix(vals, svecs, beta, d, o.Tol*scale) >= d) {
				if !invariant || j == n {
					return referenceRitzPairs(basis, vals, svecs, d, ar), matvecs, nil
				}
			}
			if j == o.MaxDim {
				limit := d
				if directive.Stall {
					limit = directive.MaxConverged
				}
				if limit > d {
					limit = d
				}
				if m := referenceConvergedPrefix(vals, svecs, beta, limit, o.Tol*scale); m >= 1 {
					return referenceRitzPairs(basis, vals, svecs, m, ar), matvecs, ErrNoConvergence
				}
				return nil, matvecs, ErrNoConvergence
			}
		}

		if invariant {
			v = randomUnitInto(rng, w)
			linalg.OrthogonalizeBlockBuf(v, basis, o.Workers, coef)
			if linalg.Normalize(v) == 0 {
				return nil, matvecs, ErrNoConvergence
			}
			betas = append(betas, 0)
			w = ar.Vec()
			if o.Reorth == ReorthSelective {
				omPrev, omCur = omCur, omPrev
				omCur = omCur[:0]
				for i := 0; i < len(basis); i++ {
					omCur = append(omCur, lanczosEps)
				}
				omCur = append(omCur, 1)
				forceReorth = false
			}
			continue
		}
		betas = append(betas, beta)
		linalg.Scale(1/beta, w)
		v, w = w, ar.Vec()
		if o.Reorth == ReorthSelective {
			omPrev, omCur, omNext = omCur, omNext, omPrev
		}
	}
	return nil, matvecs, ErrNoConvergence
}

// referenceConvergedPrefix is the frozen residual test: it reads the
// last row of the full eigenvector matrix.
func referenceConvergedPrefix(vals []float64, svecs *linalg.Dense, beta float64, limit int, tol float64) int {
	m := len(vals)
	if limit > m {
		limit = m
	}
	for i := 0; i < limit; i++ {
		if math.Abs(beta*svecs.At(m-1, i)) > tol {
			return i
		}
	}
	return limit
}

// referenceRitzPairs is the frozen Ritz-pair assembly.
func referenceRitzPairs(basis [][]float64, vals []float64, svecs *linalg.Dense, d int, ar *linalg.Arena) *Decomposition {
	n := len(basis[0])
	m := len(basis)
	u := linalg.NewDense(n, d)
	col := ar.Vec()
	for j := 0; j < d; j++ {
		linalg.Zero(col)
		for k := 0; k < m; k++ {
			linalg.Axpy(svecs.At(k, j), basis[k], col)
		}
		linalg.Normalize(col)
		for i := 0; i < n; i++ {
			u.Set(i, j, col[i])
		}
	}
	ar.Free(col)
	return &Decomposition{Values: linalg.CopyVec(vals[:d]), Vectors: u}
}

// referenceTridiagWS is the frozen convergence-check workspace: a full
// QL with eigenvectors at every check, its matrix grown with 4·n² slack.
type referenceTridiagWS struct {
	d, e []float64
	zbuf []float64
	z    linalg.Dense
}

func (ws *referenceTridiagWS) eig(diag, sub []float64) ([]float64, *linalg.Dense, error) {
	n := len(diag)
	if len(sub) != n-1 {
		return nil, nil, errors.New("eigen: subdiagonal must have length n-1")
	}
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
	if err := referenceTQL2(ws.d, ws.e, &ws.z); err != nil {
		return nil, nil, err
	}
	referenceSortEigenAscending(ws.d, &ws.z)
	return ws.d, &ws.z, nil
}

// referenceTQL2 is the frozen EISPACK tql2 port: eigenvectors in the
// columns of z, rotated through Dense.At/Set.
func referenceTQL2(d, e []float64, z *linalg.Dense) error {
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

// referenceSortEigenAscending is the frozen selection sort over the
// columns of z.
func referenceSortEigenAscending(d []float64, z *linalg.Dense) {
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
			for r := 0; r < n; r++ {
				vi, vk := z.At(r, i), z.At(r, k)
				z.Set(r, i, vk)
				z.Set(r, k, vi)
			}
		}
	}
}
