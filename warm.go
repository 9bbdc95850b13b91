package spectral

import (
	"context"

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
	// WarmOutcomeSeeded: the resilience ladder's attempt 0 — Lanczos
	// from the seed's combined Ritz direction instead of a random
	// vector — converged.
	WarmOutcomeSeeded = "seeded"
	// WarmOutcomeRejected: the residual check or a structural check
	// (shape mismatch, non-finite entries, lost orthonormality)
	// rejected the seed, or the seeded attempt did not run (dense
	// regime, disconnected netlist) or did not converge; the cold
	// solve's answer was returned.
	WarmOutcomeRejected = "rejected"
	// WarmOutcomeCold: warm-starting was not attempted (no seed).
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
// fault plan (chaos testing) can be injected into an otherwise
// production pipeline; it reaches the seeded attempt too. Four things
// can happen, reported in WarmInfo:
//
//   - accepted: every seed Ritz pair passes the residual check
//     ‖A v − θ v‖ ≤ tol·scale on h's operator (tol is the resilience
//     policy's tolerance, the same one a cold solve converges under).
//     The refreshed seed IS the answer; no solve runs.
//   - seeded: the seed is a usable subspace but not converged; the
//     resilience ladder runs with the seed's combined Ritz direction as
//     its attempt 0 and converged there.
//   - rejected: the seed failed a check, or the seeded attempt did not
//     apply (dense regime, disconnected netlist) or did not converge,
//     and the cold answer is returned bit for bit.
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

// trySeed evaluates the pipeline's warm-start seed against g's
// Laplacian and records the verdict's residual, scale and reason in
// pl.warm. It returns the refreshed pairs when the seed is accepted
// outright, or the start vector for the ladder's attempt 0 when the
// seed is worth one; both nil means a cold solve.
func (pl *pipeline) trySeed(g *graph.Graph, model graph.CliqueModel, want int) (accepted *eigen.Decomposition, start []float64) {
	if !pl.seed.satisfies(g.N(), model, want) {
		// A present-but-incompatible seed (wrong module count, model, or
		// too few pairs) is a rejection, not a cold run: the caller asked
		// for a warm start and the seed failed its checks.
		pl.warm.Reason = "seed spectrum incompatible (module count, model, or pair count)"
		return nil, nil
	}
	ev := eigen.EvaluateWarmSeed(g.Laplacian(), pl.seed.dec, want, pl.pol.Tolerance())
	pl.warm.MaxResidual, pl.warm.Scale, pl.warm.Reason = ev.MaxResidual, ev.Scale, ev.Reason
	switch ev.Outcome {
	case eigen.WarmAccepted:
		return ev.Refreshed, nil
	case eigen.WarmSeeded:
		return nil, ev.Start
	}
	return nil, nil
}

// settleWarm records the warm-start outcome in pl.warm, on the root
// span and on the tracer as "eigen.warmstart.<outcome>".
func (pl *pipeline) settleWarm(outcome string) {
	pl.warm.Outcome = outcome
	pl.rspan.Annotate(trace.Str("outcome", outcome))
	trace.Add(pl.root, "eigen.warmstart."+outcome, 1)
}
