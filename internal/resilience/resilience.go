// Package resilience is the hardening layer of the partitioning
// pipeline: the stage names failures are attributed to, deterministic
// fault injection, and the eigensolver retry/fallback/degradation
// ladder. Panic recovery and attribution live in the façade
// (pipeline.protect and pipeline.guard build *spectral.PipelineError).
//
// The paper's thesis — "use as many eigenvectors as practically
// possible" — implies a degradation policy rather than a hard failure
// when an eigensolve struggles: multiway spectral theory (Riolo–Newman;
// Lee–Oveis Gharan–Trevisan's higher-order Cheeger inequalities) shows
// partition quality degrades gracefully with fewer eigenvectors, so a
// solver that converged only d' < d pairs still supports a useful MELO
// ordering. SolveEigen encodes exactly that ladder; FaultPlan lets
// tests prove every rung fires.
package resilience

// Stage identifies a phase of the partitioning pipeline for error
// attribution.
type Stage string

const (
	// StageValidate covers input and option validation at the façade
	// boundary.
	StageValidate Stage = "validate"
	// StageCliqueModel covers the hypergraph-to-graph clique expansion.
	StageCliqueModel Stage = "clique-model"
	// StageEigen covers eigensolves (Lanczos, block, dense, CG).
	StageEigen Stage = "eigen"
	// StageOrdering covers ordering construction (MELO, Fiedler, SFC).
	StageOrdering Stage = "ordering"
	// StageSplit covers turning orderings into partitionings (splits,
	// DP-RP) and the direct partitioners.
	StageSplit Stage = "split"
	// StageRefine covers FM post-refinement.
	StageRefine Stage = "refine"
	// StageMultilevel covers the multilevel V-cycle (coarsening,
	// per-level projection and refinement); the coarsest solve inside
	// it re-enters the regular stages.
	StageMultilevel Stage = "multilevel"
)
