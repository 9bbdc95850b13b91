package resilience

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/eigen"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// EigenPolicy configures SolveEigen's retry ladder. The zero value
// selects the defaults noted on each field.
type EigenPolicy struct {
	// Tol is the relative residual tolerance. Default 1e-6, the
	// pipeline's ordering-grade tolerance: eigenvector coordinates feed
	// ordering heuristics, and residuals far below the eigenvalue gaps
	// add cost without changing any ordering.
	Tol float64
	// MinD is the smallest usable decomposition: degradation below this
	// many pairs fails the solve instead. Default 2 (the trivial pair
	// plus one informative eigenvector — the least the paper's ordering
	// heuristics can work with).
	MinD int
	// Faults, when non-nil, injects the plan's deterministic faults
	// into every attempt. It is also how a test forces a rung: failing
	// the plan's attempt 1 fails the dense-direct solve, so the Lanczos
	// rungs run even on small operators.
	Faults *FaultPlan
	// Workers bounds the goroutines the sparse solver's kernels may
	// use (see eigen.LanczosOptions.Workers). 0 selects the process
	// default; 1 forces serial. Every rung of the ladder is
	// deterministic at every setting — the kernels are
	// worker-invariant and the dense rungs are serial.
	Workers int
}

// The ladder's fixed rungs.
const (
	// defaultTol is the relative residual tolerance when Tol is unset.
	defaultTol = 1e-6
	// maxSparseAttempts bounds the cold Lanczos attempts: the initial
	// try plus seed-restarts with escalated Krylov caps.
	maxSparseAttempts = 3
	// denseDirectN: operators at or below this dimension are solved
	// densely outright, where the dense solver is both exact and faster
	// than Lanczos.
	denseDirectN = 256
	// denseFallbackN bounds the dense-fallback rung: after the sparse
	// attempts are exhausted, operators at or below this dimension are
	// handed to the slower-but-sure dense solver.
	denseFallbackN = 4096
	// baseSeed seeds the first Lanczos attempt; restarts use
	// baseSeed+1, baseSeed+2, … so every rung is deterministic.
	baseSeed = 1
)

// Tolerance returns the relative residual tolerance the ladder solves
// to under p: Tol, or the 1e-6 default when Tol is unset.
func (p EigenPolicy) Tolerance() float64 {
	if p.Tol <= 0 {
		return defaultTol
	}
	return p.Tol
}

func (p EigenPolicy) withDefaults() EigenPolicy {
	p.Tol = p.Tolerance()
	if p.MinD <= 0 {
		p.MinD = 2
	}
	return p
}

// PartialDecomposition is the outcome of a resilient eigensolve: the
// delivered eigenpairs plus a record of how they were obtained. In the
// common case Delivered == Requested; after the degradation rung
// Delivered < Requested and Degraded is true — the "as many
// eigenvectors as practically possible" contract.
type PartialDecomposition struct {
	// Dec holds the Delivered smallest eigenpairs.
	Dec *eigen.Decomposition
	// Requested and Delivered count the eigenpairs asked for and
	// obtained.
	Requested, Delivered int
	// Attempts counts the solver attempts consumed (Lanczos tries plus
	// dense solves).
	Attempts int
	// Seeded reports that attempt 0 — the Lanczos solve started from
	// SolveEigenFrom's start vector — produced the result.
	Seeded bool
	// DenseFallback reports that the dense rung produced the result.
	DenseFallback bool
	// Degraded reports Delivered < Requested.
	Degraded bool
	// Notes is a human-readable log of the rungs taken, for diagnostics
	// and error reports.
	Notes []string
}

func (r *PartialDecomposition) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// SolveEigen computes the d smallest eigenpairs of the symmetric
// operator a, climbing a retry ladder instead of failing on the first
// non-convergence:
//
//  1. Lanczos with the default Krylov budget.
//  2. On non-convergence (or numerical breakdown): restart with a fresh
//     random seed and a doubled (bounded) Krylov cap, up to three
//     tries in all.
//  3. Dense tridiagonal (tred2/tql2) fallback when the operator is
//     small enough (n ≤ 4096) — slower but sure.
//  4. Degrade d: return the d' < d pairs that did converge (smallest
//     pairs converge first, so the prefix is the useful one), flagged
//     Degraded, so downstream orderings still run with fewer
//     eigenvectors.
//
// Small operators (n ≤ 256, or d > n/3) go straight to the dense
// solver. ctx is honoured at every solver iteration boundary;
// cancellation returns ctx.Err() unwrapped. The error from an exhausted
// ladder wraps the last rung's failure and lists every rung tried.
func SolveEigen(ctx context.Context, a linalg.Operator, d int, pol EigenPolicy) (*PartialDecomposition, error) {
	return SolveEigenFrom(ctx, a, d, nil, pol)
}

// SolveEigenFrom is SolveEigen with a warm start. In the sparse regime
// a non-nil start adds attempt 0 ahead of the cold rungs: Lanczos with
// attempt 1's Krylov cap and seed, started from start instead of the
// seeded random vector (see eigen.LanczosOptions.InitialVector). If it
// converges the result reports Seeded; if it fails, the ladder goes on
// exactly as a cold solve would — attempt 0 leaves nothing behind for
// the degradation rung — so a failed start costs time, never a
// different answer. In the dense regime start is ignored.
func SolveEigenFrom(ctx context.Context, a linalg.Operator, d int, start []float64, pol EigenPolicy) (_ *PartialDecomposition, retErr error) {
	n := a.Dim()
	if d < 1 {
		return nil, fmt.Errorf("resilience: requested %d eigenpairs, want >= 1", d)
	}
	if d > n {
		return nil, fmt.Errorf("resilience: requested %d eigenpairs of a %d-dimensional operator", d, n)
	}
	pol = pol.withDefaults()
	res := &PartialDecomposition{Requested: d}
	var lastErr error

	ctx, span := trace.Start(ctx, "eigen.solve", trace.Int("n", n), trace.Int("want", d))
	rung := "exhausted"
	defer func() {
		if IsContextError(retErr) {
			rung = "cancelled"
		}
		span.Annotate(trace.Str("rung", rung), trace.Int("attempts", res.Attempts))
		trace.Add(ctx, "resilience.rung."+rung, 1)
		span.End()
	}()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Small problems: dense is exact and cheap; no ladder needed unless
	// a fault is injected.
	dense := n <= denseDirectN || d > n/3
	first := 1 // the first Lanczos attempt; 0 is the warm start
	if start != nil && !dense {
		first = 0
	}
	if dense {
		res.Attempts++
		dec, err := denseSolve(ctx, a, d, pol.Faults)
		if err == nil {
			res.Dec, res.Delivered = dec, d
			res.note("dense direct solve (n=%d)", n)
			rung = "dense-direct"
			return res, nil
		}
		if IsContextError(err) {
			return nil, err
		}
		res.note("dense direct solve failed: %v", err)
		lastErr = err
		// The dense solver only fails on injected faults or structural
		// problems; the sparse ladder below may still succeed.
	}

	// Rungs 1–2: Lanczos (after the warm attempt 0, if any), then
	// seed-restarts with bounded backoff on the Krylov cap.
	dim := 12*d + 100
	if dim < 300 {
		dim = 300
	}
	if dim > n {
		dim = n
	}
	var best *eigen.Decomposition
	for attempt := first; attempt <= maxSparseAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Attempts++
		seed := baseSeed + int64(max(attempt-1, 0))
		opts := &eigen.LanczosOptions{Tol: pol.Tol, MaxDim: dim, Seed: seed, Workers: pol.Workers}
		if attempt == 0 {
			opts.InitialVector = start
		}
		if pol.Faults != nil {
			opts.Fault = pol.Faults
		}
		dec, err := eigen.LanczosCtx(ctx, a, d, opts)
		if err == nil {
			res.Dec, res.Delivered, res.Seeded = dec, d, attempt == 0
			res.note("lanczos converged (attempt %d, seed %d, maxdim %d)", attempt, seed, dim)
			rung = "lanczos"
			return res, nil
		}
		if IsContextError(err) {
			return nil, err
		}
		lastErr = err
		res.note("lanczos failed (attempt %d, seed %d, maxdim %d): %v", attempt, seed, dim, err)
		if attempt == 0 {
			continue // attempt 1 runs exactly as in a cold solve
		}
		if dec != nil && (best == nil || dec.D() > best.D()) {
			best = dec // converged prefix, kept for the degradation rung
		}
		if dim < n {
			dim *= 2
			if dim > n {
				dim = n
			}
		}
	}

	// Rung 3: slower-but-sure dense solve for small n.
	if n <= denseFallbackN {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Attempts++
		dec, err := denseSolve(ctx, a, d, pol.Faults)
		if err == nil {
			res.Dec, res.Delivered = dec, d
			res.DenseFallback = true
			res.note("dense fallback solve (n=%d)", n)
			rung = "dense-fallback"
			return res, nil
		}
		if IsContextError(err) {
			return nil, err
		}
		lastErr = err
		res.note("dense fallback failed: %v", err)
	}

	// Rung 4: degrade d — deliver the converged prefix if it is usable.
	if best != nil && best.D() >= pol.MinD {
		res.Dec, res.Delivered = best, best.D()
		res.Degraded = true
		res.note("degraded to %d of %d requested eigenpairs", best.D(), d)
		rung = "degraded"
		return res, nil
	}

	return nil, fmt.Errorf("resilience: eigensolve ladder exhausted after %d attempts (%v): %w",
		res.Attempts, res.Notes, lastErr)
}

// denseSolve runs the exact dense path, honouring ctx and the fault
// plan's attempt schedule.
func denseSolve(ctx context.Context, a linalg.Operator, d int, faults *FaultPlan) (*eigen.Decomposition, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if faults != nil {
		if _, err := faults.StartAttempt(); err != nil {
			return nil, err
		}
	}
	dec, err := eigen.SymEigCtx(ctx, eigen.Densify(a))
	if err != nil {
		return nil, err
	}
	return dec.Truncate(d)
}

// IsContextError reports whether err is (or wraps) a context
// cancellation or deadline error. The hardening layer never wraps these:
// they must stay visible to errors.Is at the outermost caller.
func IsContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
