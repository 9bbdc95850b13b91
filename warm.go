package spectral

import (
	"context"
	"fmt"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Warm-start outcomes as reported in WarmInfo.Outcome and counted on
// the tracer as "eigen.warmstart.<outcome>".
const (
	// WarmOutcomeAccepted: the seed's Ritz pairs already satisfied the
	// residual tolerance on the delta netlist's operator; the spectrum
	// was refreshed without running an eigensolve.
	WarmOutcomeAccepted = "accepted"
	// WarmOutcomeSeeded: Lanczos ran, starting from the seed's combined
	// Ritz direction instead of a random vector.
	WarmOutcomeSeeded = "seeded"
	// WarmOutcomeRejected: the residual check (or a structural check —
	// dimension mismatch, non-finite entries, lost orthonormality)
	// rejected the seed and a cold solve ran instead.
	WarmOutcomeRejected = "rejected"
	// WarmOutcomeCold: warm-starting was not attempted (no seed, seed
	// shape mismatch, dense-solve regime, or disconnected netlist).
	WarmOutcomeCold = "cold"
)

// WarmInfo reports how a warm-started decomposition used its seed.
type WarmInfo struct {
	// Outcome is one of the WarmOutcome* constants.
	Outcome string `json:"outcome"`
	// MaxResidual is the largest seed-pair residual ‖A v − θ v‖ against
	// the new operator, and Scale the ‖A‖ estimate the acceptance
	// threshold tol·Scale was relative to. Both are 0 when the seed was
	// never evaluated (Outcome "cold").
	MaxResidual float64 `json:"maxResidual,omitempty"`
	Scale       float64 `json:"scale,omitempty"`
	// Reason explains a rejection or a cold outcome.
	Reason string `json:"reason,omitempty"`
}

// DecomposeWarm is DecomposeWarmCtxPolicy with a background context and
// the default resilience policy.
func DecomposeWarm(h *Netlist, model Model, d int, seed *Spectrum) (*Spectrum, WarmInfo, error) {
	return DecomposeWarmCtxPolicy(context.Background(), h, model, d, seed, resilience.EigenPolicy{})
}

// DecomposeWarmCtxPolicy computes the spectrum of h like DecomposeCtx,
// under an explicit resilience policy, but tries to reuse seed — the
// cached spectrum of a nearby netlist (typically the base a delta was
// applied to) — before paying for a cold eigensolve. The spectrald
// daemon routes all of its eigensolves through it, so a deterministic
// fault plan (chaos testing) or tuned retry ladder can be injected into
// an otherwise production pipeline. Four things can happen, reported in
// WarmInfo:
//
//   - accepted: every seed Ritz pair passes the residual check
//     ‖A v − θ v‖ ≤ tol·scale on h's operator (tol is the resilience
//     policy's tolerance, the same one a cold solve converges under).
//     The refreshed seed IS the answer; no solve runs.
//   - seeded: the seed is a usable subspace but not converged; Lanczos
//     runs with the seed's combined Ritz direction as its starting
//     vector, then falls back to a cold solve if it fails to converge.
//   - rejected: the seed failed a check and the cold solve runs.
//   - cold: seed is nil. This is exactly DecomposeCtx under pol — one
//     "decompose" span and no warm-start counter.
//
// Every path is deterministic: the result is a pure function of
// (netlist, model, d, seed, policy). With a seed, the outcome is
// counted on the context's tracer as "eigen.warmstart.<outcome>".
//
// The caller is responsible for passing a seed decomposed from a
// netlist with the same module population under the same model — the
// function verifies shape (module count, model, pair count) and
// numerical fitness, but cannot tell an unrelated same-size netlist
// from a true base (the residual check makes an unrelated seed
// overwhelmingly likely to be rejected, not wrong).
func DecomposeWarmCtxPolicy(ctx context.Context, h *Netlist, model Model, d int, seed *Spectrum, pol resilience.EigenPolicy) (*Spectrum, WarmInfo, error) {
	return decompose(ctx, h, model, d, seed, pol)
}

// warmStart tries to answer a decomposition from seed, recording the
// outcome in info and, once it is settled, on the root span and the
// tracer. A nil spectrum with a nil error means the seed was rejected:
// the caller runs the cold solve.
func (pl *pipeline) warmStart(h *Netlist, cm graph.CliqueModel, d int, seed *Spectrum, info *WarmInfo) (*Spectrum, error) {
	defer func() {
		pl.rspan.Annotate(trace.Str("outcome", info.Outcome))
		if info.Outcome != "" {
			trace.Add(pl.root, "eigen.warmstart."+info.Outcome, 1)
		}
	}()
	n := h.NumModules()
	want := min(d+1, n)
	if !seed.satisfies(n, cm, want) {
		// A present-but-incompatible seed (wrong module count, model, or
		// too few pairs) is a rejection, not a cold run: the caller asked
		// for a warm start and the seed failed its checks.
		info.Outcome, info.Reason = WarmOutcomeRejected, "seed spectrum incompatible (module count, model, or pair count)"
		return nil, nil
	}

	// Evaluate the seed against the new operator: d+1 matvecs on top of
	// the graph build.
	g, err := graph.FromHypergraph(h, cm, 0)
	if err != nil {
		return nil, err
	}
	tol := pl.pol.Tol
	if tol <= 0 {
		tol = resilience.DefaultTol
	}
	ev := eigen.EvaluateWarmSeed(g.Laplacian(), seed.dec, want, tol)
	info.MaxResidual, info.Scale, info.Reason = ev.MaxResidual, ev.Scale, ev.Reason
	switch ev.Outcome {
	case eigen.WarmAccepted:
		info.Outcome = WarmOutcomeAccepted
		return &Spectrum{modules: n, model: cm, g: g, dec: ev.Refreshed}, nil
	case eigen.WarmSeeded:
		// A seeded Lanczos only makes sense where a cold solve would
		// iterate: connected graph, sparse regime. Everywhere else the
		// resilience ladder's dense solve is both fast and seed-blind.
		denseN := pl.pol.DenseDirectN
		if denseN <= 0 {
			denseN = resilience.DefaultDenseDirectN
		}
		if n <= denseN || want > n/3 || len(g.Components()) > 1 {
			info.Outcome, info.Reason = WarmOutcomeRejected, "seeded regime not applicable (dense or disconnected)"
			return nil, nil
		}
		seedID := pl.pol.BaseSeed
		if seedID == 0 {
			seedID = 1
		}
		pl.enter(resilience.StageEigen)
		dec, err := eigen.LanczosCtx(pl.ctx, g.Laplacian(), want, &eigen.LanczosOptions{
			Tol:           tol,
			Seed:          seedID,
			Workers:       pl.workers(),
			InitialVector: ev.Start,
		})
		if err != nil {
			if resilience.IsContextError(err) {
				return nil, err
			}
			info.Outcome, info.Reason = WarmOutcomeRejected, fmt.Sprintf("seeded solve failed: %v", err)
			return nil, nil
		}
		info.Outcome = WarmOutcomeSeeded
		return &Spectrum{modules: n, model: cm, g: g, dec: dec}, nil
	default:
		info.Outcome = WarmOutcomeRejected
		return nil, nil
	}
}
