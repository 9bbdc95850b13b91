package spectral

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/hypergraph"
	"repro/internal/resilience"
)

// PipelineError attributes a partitioning failure to the pipeline stage
// that produced it: "validate", "clique-model", "eigen", "ordering",
// "split" or "refine". Panics inside a stage are recovered and reported
// as a PipelineError with Panicked set and the goroutine stack captured,
// so a malformed input can never crash a host process through Partition.
//
// Context cancellation is never wrapped: a cancelled or expired context
// surfaces as context.Canceled / context.DeadlineExceeded directly, so
// errors.Is works without unwrapping.
type PipelineError struct {
	// Stage names the pipeline stage that failed.
	Stage string
	// Method is the partitioning method that was running.
	Method Method
	// Err is the underlying cause.
	Err error
	// Panicked reports whether the stage panicked (rather than returning
	// an error).
	Panicked bool
	// Stack holds the goroutine stack at the point of a recovered panic;
	// nil for ordinary errors.
	Stack []byte
}

func (e *PipelineError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("spectral: %v: panic in %s stage: %v", e.Method, e.Stage, e.Err)
	}
	return fmt.Sprintf("spectral: %v: %s stage: %v", e.Method, e.Stage, e.Err)
}

func (e *PipelineError) Unwrap() error { return e.Err }

// wrapPipelineErr converts an internal error into a *PipelineError
// attributed to the given method and stage. Context errors pass through
// untouched, and an error already attributed deeper in the pipeline (a
// recovered panic, or a nested pipeline such as the multilevel coarsest
// solve) keeps its attribution.
func wrapPipelineErr(m Method, stage resilience.Stage, err error) error {
	if err == nil || resilience.IsContextError(err) {
		return err
	}
	var pe *PipelineError
	if errors.As(err, &pe) {
		return err
	}
	return &PipelineError{Stage: string(stage), Method: m, Err: err}
}

// ValidateNetlist checks a netlist before it enters the pipeline: it
// must have at least one module, structurally valid nets (sorted,
// deduplicated, >= 2 in-range pins each) and finite positive module
// areas. Every façade entry point runs this automatically; it is
// exported for callers that parse untrusted netlists and want the check
// without a full run.
func ValidateNetlist(h *Netlist) error {
	if h == nil {
		return fmt.Errorf("spectral: nil netlist")
	}
	if h.NumModules() == 0 {
		return fmt.Errorf("spectral: netlist has no modules")
	}
	if err := h.Validate(); err != nil {
		return err
	}
	for i, n := 0, h.NumModules(); i < n; i++ {
		a := h.Area(i)
		if math.IsNaN(a) || math.IsInf(a, 0) || a <= 0 {
			return fmt.Errorf("spectral: module %d (%s) has invalid area %v, want finite > 0", i, h.Names[i], a)
		}
	}
	return nil
}

// validateOptions rejects unusable option combinations with descriptive
// errors. It sees both the raw options (so an explicit D can be told
// apart from the zero-value "use the default") and the defaulted ones.
func validateOptions(h *hypergraph.Hypergraph, raw, o Options) error {
	n := h.NumModules()
	if o.K < 2 {
		return fmt.Errorf("spectral: K = %d, want >= 2", o.K)
	}
	if o.K > n {
		return fmt.Errorf("spectral: K = %d exceeds the netlist's %d modules", o.K, n)
	}
	if raw.D < 0 {
		return fmt.Errorf("spectral: D = %d, want >= 1 (or 0 for the default)", raw.D)
	}
	if raw.D > n {
		return fmt.Errorf("spectral: D = %d exceeds the netlist's %d modules", raw.D, n)
	}
	if o.Scheme < 0 || o.Scheme > 3 {
		return fmt.Errorf("spectral: Scheme = %d, want 0..3", o.Scheme)
	}
	if math.IsNaN(o.MinFrac) || o.MinFrac <= 0 || o.MinFrac > 0.5 {
		return fmt.Errorf("spectral: MinFrac = %v, want in (0, 0.5]", o.MinFrac)
	}
	if methodInfoOf(o.Method) == nil {
		return fmt.Errorf("spectral: unknown method %v", o.Method)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("spectral: Parallelism = %d, want >= 1 (or 0 for the process default)", o.Parallelism)
	}
	if o.CoarsenThreshold < 0 {
		return fmt.Errorf("spectral: CoarsenThreshold = %d, want >= 0 (0 for the default)", o.CoarsenThreshold)
	}
	if o.MaxLevels < 0 {
		return fmt.Errorf("spectral: MaxLevels = %d, want >= 0 (0 for the default)", o.MaxLevels)
	}
	return nil
}

// checkPartitioning is the pipeline's exit guard: whatever path produced
// p — including every degraded rung of the eigensolver ladder — the
// result handed to the caller must be a complete, in-range k-way
// assignment.
func checkPartitioning(h *Netlist, p *Partitioning, k int) error {
	if p == nil {
		return fmt.Errorf("spectral: internal: nil partitioning")
	}
	if p.N() != h.NumModules() {
		return fmt.Errorf("spectral: internal: partitioning covers %d modules, netlist has %d", p.N(), h.NumModules())
	}
	if p.K != k {
		return fmt.Errorf("spectral: internal: partitioning has %d clusters, want %d", p.K, k)
	}
	for i, c := range p.Assign {
		if c < 0 || c >= k {
			return fmt.Errorf("spectral: internal: module %d assigned to cluster %d, out of [0,%d)", i, c, k)
		}
	}
	return nil
}
