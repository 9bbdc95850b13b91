package spectral

// This file is the spectrum-reuse surface of the façade: the expensive
// Laplacian eigendecomposition is separated from the cheap downstream
// partitioning so callers (notably the spectrald daemon's spectrum
// cache, internal/speccache) can pay for one eigensolve and reuse it
// across methods, K values and d-sweeps — the paper's "the more
// eigenvectors, the better" sweep pattern made incremental.
//
// The façade's entry surface is six functions over the paper's three
// operations: DecomposeCtx, DecomposeWarm and DecomposeWarmCtxPolicy
// (spectrum), OrderModulesWithSpectrum (ordering), and PartitionCtx
// and PartitionWithSpectrum (split). Why these six: they are exactly
// what the benchmark harness (perfbench/, which must not change) and
// the spectrald job pool call. Each is a thin wrapper over one body —
// decompose, order or runPartition — and every body enters through the
// same hardened prologue, pipeline.guard.

import (
	"context"
	"fmt"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Model selects the clique expansion used to turn a netlist into a
// weighted graph before the eigensolve (see internal/graph for the cost
// functions). Decompositions are only reusable between runs that agree
// on the model.
type Model int

const (
	// ModelPartitioningSpecific is the paper's main model: the expected
	// cost of a cut net over random bipartitions equals one. Used by
	// MELO, SB, SFC, VKP, HL and the probe/cluster extensions.
	ModelPartitioningSpecific Model = iota
	// ModelStandard is the classic 1/(|e|−1) linear-placement model.
	ModelStandard
	// ModelFrankle is the (2/|e|)^{3/2} quadratic-placement model the
	// paper uses for the KP baseline.
	ModelFrankle
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case ModelPartitioningSpecific:
		return "partitioning-specific"
	case ModelStandard:
		return "standard"
	case ModelFrankle:
		return "frankle"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

func (m Model) clique() (graph.CliqueModel, error) {
	switch m {
	case ModelPartitioningSpecific:
		return graph.PartitioningSpecific, nil
	case ModelStandard:
		return graph.Standard, nil
	case ModelFrankle:
		return graph.Frankle, nil
	default:
		return 0, fmt.Errorf("spectral: unknown model %v", m)
	}
}

func modelOf(cm graph.CliqueModel) Model {
	switch cm {
	case graph.Standard:
		return ModelStandard
	case graph.Frankle:
		return ModelFrankle
	default:
		return ModelPartitioningSpecific
	}
}

// Spectrum is a reusable eigendecomposition of a netlist's clique-model
// Laplacian: the graph built from the netlist under one Model plus its
// smallest eigenpairs. A Spectrum computed once with d non-trivial
// eigenvectors satisfies any later partition or ordering run on the
// same netlist that needs the same model and at most d eigenvectors —
// regardless of method or K. Spectrums are immutable and safe for
// concurrent use.
type Spectrum struct {
	modules int
	model   graph.CliqueModel
	g       *graph.Graph
	dec     *eigen.Decomposition
}

// Modules returns the number of modules of the netlist the spectrum was
// computed from.
func (s *Spectrum) Modules() int { return s.modules }

// Model returns the clique model the spectrum was computed under.
func (s *Spectrum) Model() Model { return modelOf(s.model) }

// Pairs returns the number of eigenpairs held, including the trivial
// (constant) pair.
func (s *Spectrum) Pairs() int { return s.dec.D() }

// D returns the number of non-trivial eigenvectors held — the largest d
// a reusing run may request.
func (s *Spectrum) D() int { return s.dec.D() - 1 }

// Eigenvalues returns a copy of the eigenvalues, ascending (the first
// is the trivial ≈0 Laplacian eigenvalue).
func (s *Spectrum) Eigenvalues() []float64 {
	return append([]float64(nil), s.dec.Values...)
}

// SpectrumSpec describes the decomposition a Partition run with these
// options would compute, so callers can precompute (or cache) it and
// pass it back through PartitionWithSpectrum.
type SpectrumSpec struct {
	// Needed reports whether the method consumes a shared decomposition
	// at all. RSB, Placement and Barnes run their own internal solves
	// (or none) and cannot reuse one.
	Needed bool
	// Model is the clique model the method requires.
	Model Model
	// D is the number of non-trivial eigenvectors required.
	D int
}

// SpectrumSpec returns the decomposition requirement of a Partition run
// with these options (after defaulting), from the method registry
// (methods.go). Methods that run their own internal solves — RSB,
// Placement, Barnes, MultilevelMELO — report Needed: false.
func (o Options) SpectrumSpec() SpectrumSpec {
	d := o.withDefaults()
	if info := methodInfoOf(d.Method); info != nil {
		return info.spec(d)
	}
	return SpectrumSpec{Needed: false}
}

// DecomposeCtx computes the netlist's clique-model graph and its d+1
// smallest Laplacian eigenpairs (the trivial pair plus d non-trivial
// eigenvectors, clamped to the number of modules), with the same
// hardening as PartitionCtx: validation, the eigensolver resilience
// ladder, per-component solves on disconnected netlists, and panic
// recovery into *PipelineError. Context errors pass through unwrapped.
func DecomposeCtx(ctx context.Context, h *Netlist, model Model, d int) (*Spectrum, error) {
	sp, _, err := decompose(ctx, h, model, d, nil, resilience.EigenPolicy{})
	return sp, err
}

// ParseModel maps a clique-model name (as produced by Model.String) to
// its Model.
func ParseModel(s string) (Model, error) {
	for _, m := range []Model{ModelPartitioningSpecific, ModelStandard, ModelFrankle} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("spectral: unknown model %q", s)
}

// decompose is the body behind DecomposeCtx, DecomposeWarm and
// DecomposeWarmCtxPolicy. A nil seed is the plain cold path: one
// "decompose" span, no warm-start counter, and WarmInfo{Outcome:
// "cold", Reason: "no seed spectrum"}. With a seed the span is
// "decompose.warm" and pipeline.decompose tries the seed on the graph
// it builds (see trySeed) before, or as attempt 0 of, the solve.
func decompose(ctx context.Context, h *Netlist, model Model, d int, seed *Spectrum, pol resilience.EigenPolicy) (*Spectrum, WarmInfo, error) {
	cm, merr := model.clique()
	pl := &pipeline{o: Options{D: d}.withDefaults(), pol: pol, seed: seed}
	op := "decompose.warm"
	if seed == nil {
		op, pl.warm = "decompose", WarmInfo{Outcome: WarmOutcomeCold, Reason: "no seed spectrum"}
	}
	var sp *Spectrum
	err := pl.guard(ctx, h, op,
		[]trace.Attr{trace.Str("model", model.String()), trace.Int("d", d)},
		func() error {
			if merr != nil {
				return merr
			}
			if d < 1 {
				return fmt.Errorf("spectral: d = %d, want >= 1", d)
			}
			return nil
		},
		func() error {
			g, dec, err := pl.decompose(h, cm, d)
			if err != nil {
				return err
			}
			sp = &Spectrum{modules: h.NumModules(), model: cm, g: g, dec: dec}
			return nil
		})
	if err != nil {
		return nil, pl.warm, err
	}
	return sp, pl.warm, nil
}

// satisfies reports whether the spectrum can stand in for a fresh
// decomposition of an n-module netlist under the given model needing
// want eigenpairs (want already clamped to n).
func (s *Spectrum) satisfies(n int, model graph.CliqueModel, want int) bool {
	return s != nil && s.modules == n && s.model == model && s.dec.D() >= want
}

// PartitionWithSpectrum is PartitionCtx with a precomputed Spectrum: if
// the spectrum covers the run's requirement (same netlist size, same
// model, enough eigenvectors — see Options.SpectrumSpec), the pipeline
// reuses it and skips the eigensolve entirely; otherwise (including a
// nil spectrum) it computes a fresh decomposition exactly as
// PartitionCtx would. The caller is responsible for passing a spectrum
// of the same netlist — the pipeline can verify only the module count.
func PartitionWithSpectrum(ctx context.Context, h *Netlist, sp *Spectrum, opts Options) (*Partitioning, error) {
	return runPartition(ctx, h, sp, opts, resilience.EigenPolicy{})
}

// OrderModulesWithSpectrum returns a MELO ordering of the netlist's
// modules — the paper's primary artifact, which callers can split with
// their own rules — with the same hardening as PartitionCtx. d <= 0
// selects the default 10 eigenvectors. A spectrum covering
// (ModelPartitioningSpecific, d) skips the eigensolve; a nil or
// insufficient one triggers a fresh decomposition.
func OrderModulesWithSpectrum(ctx context.Context, h *Netlist, sp *Spectrum, d, scheme int) ([]int, error) {
	return order(ctx, h, sp, d, scheme, resilience.EigenPolicy{})
}

// order is the body behind OrderModulesWithSpectrum; tests inject an
// eigensolver policy through it.
func order(ctx context.Context, h *Netlist, sp *Spectrum, d, scheme int, pol resilience.EigenPolicy) ([]int, error) {
	if d <= 0 {
		d = 10
	}
	pl := &pipeline{o: Options{K: 2, Method: MELO, D: d, Scheme: scheme}.withDefaults(), pol: pol, sp: sp}
	var out []int
	err := pl.guard(ctx, h, "order",
		[]trace.Attr{trace.Int("d", d), trace.Int("scheme", scheme)},
		func() error {
			if scheme < 0 || scheme > 3 {
				return fmt.Errorf("spectral: Scheme = %d, want 0..3", scheme)
			}
			return nil
		},
		func() (err error) {
			out, err = pl.meloOrder(h)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
