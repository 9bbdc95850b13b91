package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// ReorthMode selects how the Lanczos iteration fights the classic loss
// of orthogonality among its basis vectors.
type ReorthMode int

const (
	// ReorthSelective (the default) runs the ω-recurrence estimate of
	// the worst inner product between the incoming basis vector and the
	// existing basis, and performs a full two-pass block
	// reorthogonalization only when the estimate crosses √ε — the
	// classical selective-reorthogonalization criterion (Parlett–Scott,
	// Simon). Steps between crossings cost only the three-term
	// recurrence, turning the O(j·n) per-step reorthogonalization into
	// an event that fires a handful of times per converged eigenpair.
	// A triggered reorthogonalization also forces one at the next step
	// ("reorthogonalize in pairs"): the recurrence's β_{j−1} term would
	// otherwise reinfect the new vector from its unpurged predecessor.
	ReorthSelective ReorthMode = iota
	// ReorthFull reorthogonalizes at every step — the pre-optimization
	// behavior, kept as the reference the partest suite compares
	// against and as a fallback for hostile spectra.
	ReorthFull
)

// lanczosEps is the unit roundoff of float64; √lanczosEps is the
// semi-orthogonality threshold selective reorthogonalization maintains.
const lanczosEps = 0x1p-52

// checkEvery is how often (in Lanczos steps) convergence is tested.
const checkEvery = 10

// LanczosOptions configures the Lanczos solver. The zero value selects
// sensible defaults.
type LanczosOptions struct {
	// Tol is the relative residual tolerance for Ritz pair convergence.
	// Default 1e-9.
	Tol float64
	// MaxDim caps the Krylov subspace dimension. Default
	// min(n, max(6d+40, 120)).
	MaxDim int
	// Seed seeds the deterministic starting vector. Default 1.
	Seed int64
	// Reorth selects full or selective reorthogonalization; the zero
	// value is ReorthSelective.
	Reorth ReorthMode
	// Fault, when non-nil, receives per-attempt and per-step callbacks
	// for deterministic fault injection (tests and the resilience
	// layer).
	Fault FaultHook
	// Workers bounds the goroutines the solver's kernels (row-sharded
	// MatVec, block Gram–Schmidt reorthogonalization) may use. 0 selects
	// the process default (parallel.Limit()); 1 forces serial execution.
	// Every setting produces bitwise-identical eigenpairs: the kernels
	// fix their arithmetic order independently of the worker count.
	Workers int
	// InitialVector, when non-nil, seeds the Krylov recurrence with the
	// given direction instead of the deterministic random start — the
	// resilience ladder's warm attempt 0 (resilience.SolveEigenFrom)
	// hands in a combination of a prior solve's Ritz vectors here. The
	// vector is copied and normalized; it must have length n and a
	// finite nonzero norm, or the solver falls back to the random
	// start. Invariant-subspace restarts still draw random directions.
	// The solve remains fully deterministic: the result is a pure
	// function of (operator, d, options, InitialVector).
	InitialVector []float64
}

func (o *LanczosOptions) withDefaults(n, d int) LanczosOptions {
	v := LanczosOptions{Tol: 1e-9, Seed: 1}
	if o != nil {
		if o.Tol > 0 {
			v.Tol = o.Tol
		}
		if o.MaxDim > 0 {
			v.MaxDim = o.MaxDim
		}
		if o.Seed != 0 {
			v.Seed = o.Seed
		}
		v.Reorth = o.Reorth
		v.Fault = o.Fault
		v.Workers = o.Workers
		v.InitialVector = o.InitialVector
	}
	v.Workers = parallel.Workers(v.Workers)
	if v.MaxDim == 0 {
		// Clustered spectra (typical for netlist-derived Laplacians) need
		// a generous Krylov space; selective reorthogonalization keeps
		// the common-path cost at O(MaxDim·n) plus a few full
		// reorthogonalization events per converged pair.
		v.MaxDim = 12*d + 100
		if v.MaxDim < 300 {
			v.MaxDim = 300
		}
	}
	if v.MaxDim > n {
		v.MaxDim = n
	}
	return v
}

// Lanczos computes the d smallest eigenpairs of the symmetric operator a
// using the Lanczos iteration with selective reorthogonalization (see
// ReorthMode). The smallest eigenpairs of a graph Laplacian converge
// first, matching the behaviour the paper relied on from LASO2: "when
// computing the eigenvectors with the smallest corresponding
// eigenvalues, vector i will always converge faster than vector j if
// i < j".
//
// Limitation inherited from single-vector Lanczos: an eigenvalue of
// multiplicity m > 1 contributes only one copy per Krylov space, so extra
// copies are found only via the invariant-subspace restart (exact
// degeneracy with a proper invariant subspace, e.g. disconnected graphs).
// For spectra with exactly degenerate interior eigenvalues (highly
// symmetric graphs such as cycles), BlockKrylov resolves multiplicities
// up to its block width directly — but only when called explicitly: no
// production path or resilience-ladder rung uses it yet, so the
// pipeline's solves carry this limitation (ROADMAP.md's repeated-
// eigenvalues item plans the rung).
//
// The operator must be symmetric; this is not checked (a full check would
// be as expensive as the solve for sparse operators).
func Lanczos(a linalg.Operator, d int, opts *LanczosOptions) (*Decomposition, error) {
	return LanczosCtx(context.Background(), a, d, opts)
}

// LanczosCtx is Lanczos with cooperative cancellation: ctx is checked at
// every iteration boundary, so a cancelled context aborts the solve
// within one Lanczos step, returning ctx.Err().
//
// On ErrNoConvergence the returned decomposition is non-nil when a
// prefix of the requested pairs did converge within the budget: it holds
// those d' < d pairs (smallest pairs converge first, so the prefix is
// the informative one). Callers that cannot use a partial result must
// treat any non-nil error as total failure.
func LanczosCtx(ctx context.Context, a linalg.Operator, d int, opts *LanczosOptions) (*Decomposition, error) {
	n := a.Dim()
	if d <= 0 {
		return nil, errors.New("eigen: Lanczos requires d >= 1")
	}
	if d > n {
		return nil, fmt.Errorf("eigen: cannot compute %d eigenpairs of a %d-dimensional operator", d, n)
	}
	o := opts.withDefaults(n, d)
	if o.MaxDim < d {
		o.MaxDim = d
	}
	var directive FaultDirective
	if o.Fault != nil {
		dir, err := o.Fault.StartAttempt()
		if err != nil {
			return nil, err
		}
		directive = dir
	}
	// One span per attempt; kernel-loop counters accumulate in locals
	// and post once on exit so the hot loop sees no atomics.
	ctx, span := trace.Start(ctx, "eigen.lanczos",
		trace.Int("n", n), trace.Int("d", d), trace.Int("maxdim", o.MaxDim), trace.Int64("seed", o.Seed))
	var matvecs, reorths, skips, restarts int64
	defer func() {
		if tr := trace.FromContext(ctx); tr != nil {
			tr.Add("eigen.matvec", matvecs)
			tr.Add("eigen.reorth", reorths)
			tr.Add("eigen.reorth.skipped", skips)
			tr.Add("eigen.restarts", restarts)
		}
		span.Annotate(trace.Int64("steps", matvecs), trace.Int64("restarts", restarts))
		span.End()
	}()
	rng := rand.New(rand.NewSource(o.Seed))
	// Row-shard the operator's MatVec across the solver's workers; the
	// wrapped product is bitwise identical to the serial one.
	a = linalg.Par(a, o.Workers)

	// All per-step n-vectors (basis growth, the residual vector, restart
	// directions, Ritz assembly scratch) come from one arena owned by
	// this solve, so the iteration loop allocates O(1) amortized — see
	// linalg.Arena for the ownership rules (nothing from the arena may
	// appear in the returned Decomposition).
	ar := linalg.NewArena(n)

	// Krylov basis, alpha (diagonal of T) and beta (subdiagonal of T).
	basis := make([][]float64, 0, o.MaxDim)
	alphas := make([]float64, 0, o.MaxDim)
	betas := make([]float64, 0, o.MaxDim) // betas[j] couples basis[j] and basis[j+1]

	v := ar.Vec()
	if !seedUnitInto(o.InitialVector, v) {
		v = randomUnitInto(rng, v)
	}
	w := ar.Vec()

	// Selective-reorthogonalization state: omCur[i] estimates
	// ⟨basis[j], basis[i]⟩ for the newest basis vector j, omPrev the
	// same for j−1, omNext for the incoming candidate. Estimates are
	// signed (see omegaStep) and maintained via the ω-recurrence; the
	// trigger compares |ω| against √ε.
	var omPrev, omCur, omNext []float64
	forceReorth := false
	if o.Reorth == ReorthSelective {
		omPrev = make([]float64, 0, o.MaxDim+1)
		omCur = append(make([]float64, 0, o.MaxDim+1), 1)
		omNext = make([]float64, 0, o.MaxDim+1)
	}
	coef := make([]float64, o.MaxDim) // Gram–Schmidt coefficient scratch
	var ws tridiagWS                  // convergence-check workspace

	// scale estimates ‖A‖ for the relative residual test; refined as the
	// largest Ritz value seen.
	scale := 1.0

	for len(basis) < o.MaxDim {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		basis = append(basis, v)
		a.MatVec(v, w)
		matvecs++
		if o.Fault != nil {
			o.Fault.AtStep(len(basis), w)
		}
		alpha := linalg.Dot(v, w)
		alphas = append(alphas, alpha)
		// w -= alpha*v + beta*v_prev (the three-term recurrence), then
		// reorthogonalize per the selected mode.
		linalg.Axpy(-alpha, v, w)
		if len(basis) >= 2 {
			linalg.Axpy(-betas[len(betas)-1], basis[len(basis)-2], w)
		}
		var beta float64
		if o.Reorth == ReorthFull {
			linalg.OrthogonalizeBlockBuf(w, basis, o.Workers, coef)
			reorths++
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
					// A fresh trigger purges this vector; the next one
					// inherits contamination through the recurrence's
					// β_{j−1} term, so purge it too.
					forceReorth = doFull
				} else {
					forceReorth = false
				}
			} else {
				// Near-breakdown: the invariant-subspace branch below
				// restarts with a fully orthogonalized fresh vector.
				doFull = false
				forceReorth = false
			}
			if doFull {
				linalg.OrthogonalizeBlockBuf(w, basis, o.Workers, coef)
				reorths++
				beta = linalg.Norm2(w)
				for i := range omNext[:len(basis)] {
					omNext[i] = lanczosEps
				}
			} else {
				skips++
			}
		}
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(beta) || math.IsInf(beta, 0) {
			return nil, fmt.Errorf("eigen: lanczos step %d produced alpha=%v beta=%v: %w",
				len(basis), alpha, beta, ErrBreakdown)
		}

		j := len(basis)
		invariant := beta <= 1e-12*scale
		if j >= d && (j%checkEvery == 0 || j == o.MaxDim || j == n || (invariant && j+1 >= n)) {
			vals, svecs, err := ws.eig(alphas, betas[:j-1])
			if err != nil {
				return nil, err
			}
			if m := vals[len(vals)-1]; m > scale {
				scale = m
			}
			// When the basis spans the whole space the Ritz pairs are
			// exact; otherwise require the residual estimates to pass.
			if !directive.Stall && (j == n || convergedSmallest(vals, svecs, beta, d, o.Tol*scale)) {
				// An exactly invariant proper subspace can hide extra
				// copies of degenerate eigenvalues (single-vector Lanczos
				// sees one vector per eigenspace); force a restart sweep
				// before accepting in that case.
				if !invariant || j == n {
					return ritzPairs(basis, vals, svecs, d, ar), nil
				}
			}
			if j == o.MaxDim {
				// Budget exhausted: salvage the converged prefix (pairs
				// converge smallest-first, so a prefix is exactly what
				// degradation needs). A stalled attempt reports at most
				// its directive's cap.
				limit := d
				if directive.Stall {
					limit = directive.MaxConverged
				}
				if limit > d {
					limit = d
				}
				if m := convergedPrefix(vals, svecs, beta, limit, o.Tol*scale); m >= 1 {
					return ritzPairs(basis, vals, svecs, m, ar), ErrNoConvergence
				}
				return nil, ErrNoConvergence
			}
		}

		if invariant {
			// Invariant subspace found (e.g. one component of a
			// disconnected graph, or a degenerate eigenspace exhausted).
			// Restart with a fresh random direction orthogonal to the
			// current basis so the remaining spectrum is explored.
			v = randomUnitInto(rng, w)
			linalg.OrthogonalizeBlockBuf(v, basis, o.Workers, coef)
			reorths++
			restarts++
			if linalg.Normalize(v) == 0 {
				// Basis already spans the whole space; the j == n branch
				// above should have fired, so treat this as failure.
				return nil, ErrNoConvergence
			}
			betas = append(betas, 0)
			w = ar.Vec()
			if o.Reorth == ReorthSelective {
				// The restart vector was just fully orthogonalized.
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
		// w becomes the next basis vector; its predecessor stays in the
		// basis, so a fresh arena vector takes w's slot. MatVec fully
		// overwrites it next iteration.
		v, w = w, ar.Vec()
		if o.Reorth == ReorthSelective {
			omPrev, omCur, omNext = omCur, omNext, omPrev
		}
	}
	return nil, ErrNoConvergence
}

// lanczosTiny is the relative β floor below which the ω-recurrence is
// skipped: the invariant-subspace restart handles such steps.
const lanczosTiny = 1e-12

// lanczosThreshold is √ε, the semi-orthogonality bound: estimates above
// it trigger a full reorthogonalization.
var lanczosThreshold = math.Sqrt(lanczosEps)

// omegaStep advances the ω-recurrence one Lanczos step (Simon's
// orthogonality-estimate recurrence): given the estimates for the
// newest basis vector (omCur, length j+1 with omCur[j] = 1) and its
// predecessor (omPrev), it appends the estimates for the incoming
// candidate vector to dst (final length j+2, self-estimate 1) and
// returns it. alpha/beta are the current step's recurrence
// coefficients; betas has length j−1 here (the current β is not yet
// appended).
//
// The estimates are SIGNED, exactly as in the reference
// implementations (Simon's analysis, PROPACK's update of ω): the
// −β_{j−1}·ω_{j−1,i} term must be allowed to cancel the
// β_i·ω_{j,i+1} term — at i = j−1 both are β_{j−1}·1, and their
// cancellation is what keeps the estimate at roundoff level. A
// non-negative "upper bound" form adds them instead and inflates every
// estimate to O(β_{j−1}/β_j) = O(1), degenerating selective
// reorthogonalization into full. Consumers compare |ω| against the
// threshold. A roundoff-level noise term is added away from zero so
// the estimate tracks accumulation rather than lucky cancellation.
//
// The arithmetic is scalar and worker-independent, so selective
// reorthogonalization preserves the bitwise parallelism-invariance
// contract.
func omegaStep(dst []float64, omCur, omPrev []float64, alphas, betas []float64, alpha, beta, scale float64) []float64 {
	j := len(omCur) - 1 // index of the newest basis vector
	noise := 2 * lanczosEps * scale
	for i := 0; i < j; i++ {
		t := betas[i]*omCur[i+1] + (alphas[i]-alpha)*omCur[i]
		if i > 0 {
			t += betas[i-1] * omCur[i-1]
		}
		if j >= 1 && i < len(omPrev) {
			t -= betas[j-1] * omPrev[i]
		}
		dst = append(dst, (t+math.Copysign(noise, t))/beta)
	}
	// The immediate predecessor: the three-term recurrence subtracts its
	// component explicitly, leaving roundoff-level coupling.
	dst = append(dst, lanczosEps*scale/beta+lanczosEps)
	return append(dst, 1)
}

// convergedSmallest reports whether the d smallest Ritz pairs of the
// current tridiagonal matrix have residual estimates |beta·s_last| below
// tol. vals/svecs come from tridiagWS.eig (sorted ascending).
func convergedSmallest(vals []float64, svecs *linalg.Dense, beta float64, d int, tol float64) bool {
	return convergedPrefix(vals, svecs, beta, d, tol) >= d
}

// convergedPrefix returns the length of the longest prefix (at most
// limit) of the smallest Ritz pairs whose residual estimates pass tol.
func convergedPrefix(vals []float64, svecs *linalg.Dense, beta float64, limit int, tol float64) int {
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

// ritzPairs assembles the d smallest Ritz pairs from the Lanczos basis and
// the tridiagonal eigendecomposition. The result is freshly allocated —
// nothing aliases the basis, the workspace, or the arena.
func ritzPairs(basis [][]float64, vals []float64, svecs *linalg.Dense, d int, ar *linalg.Arena) *Decomposition {
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

// seedUnitInto copies the caller-provided starting direction into v and
// normalizes it, reporting whether the seed was usable (right length,
// finite, nonzero norm).
func seedUnitInto(seed, v []float64) bool {
	if len(seed) != len(v) {
		return false
	}
	for i, x := range seed {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
		v[i] = x
	}
	return linalg.Normalize(v) > 0
}

// randomUnitInto fills v with a unit-norm standard normal direction.
func randomUnitInto(rng *rand.Rand, v []float64) []float64 {
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if linalg.Normalize(v) == 0 {
		v[0] = 1
	}
	return v
}

// Densify materializes an operator as a dense matrix: directly for Dense
// and CSR operators, by applying it to the standard basis otherwise.
// Only sensible for small dimensions.
func Densify(a linalg.Operator) *linalg.Dense {
	switch t := linalg.Unwrap(a).(type) {
	case *linalg.Dense:
		return t
	case *linalg.CSR:
		return t.ToDense()
	}
	n := a.Dim()
	m := linalg.NewDense(n, n)
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		a.MatVec(e, col)
		e[j] = 0
		for i := 0; i < n; i++ {
			m.Set(i, j, col[i])
		}
	}
	return m
}
