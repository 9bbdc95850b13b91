package spectral

// This file is the method registry: one table driving Method.String,
// ParseMethod, option validation, SpectrumSpec and pipeline dispatch, so
// the flat and multilevel paths (and every harness flag help) agree on
// the method set by construction. Adding a method means adding one row.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/multilevel"
	"repro/internal/recbis"
	"repro/internal/resilience"
	"repro/internal/trivec"
)

// methodEntry is one registry row.
type methodEntry struct {
	method Method
	name   string
	// summary is the one-line description the harnesses print in flag
	// help (cmd/melo -method, cmd/inspect -methods).
	summary string
	// run is the method's pipeline.
	run func(pl *pipeline, h *Netlist) (*Partitioning, error)
	// spec reports the reusable-decomposition requirement for the
	// defaulted options (Options.SpectrumSpec).
	spec func(o Options) SpectrumSpec
}

var methodTable = []methodEntry{
	{MELO, "melo", "multiple-eigenvector linear ordering + DP split (paper's method)",
		(*pipeline).partitionMELO, func(o Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: o.D}
		}},
	{SB, "sb", "Fiedler-vector spectral bipartitioning (K = 2)",
		(*pipeline).partitionSB, func(Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 1}
		}},
	{RSB, "rsb", "recursive spectral bisection, re-eigensolving each subregion",
		(*pipeline).partitionRSB, func(Options) SpectrumSpec { return SpectrumSpec{} }},
	{KP, "kp", "Chan-Schlag-Zien k-eigenvector k-way heuristic",
		(*pipeline).partitionKP, func(o Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelFrankle, D: o.K}
		}},
	{SFC, "sfc", "spacefilling-curve ordering of the spectral embedding",
		(*pipeline).partitionSFC, func(Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 2}
		}},
	{Placement, "placement", "analytical-placement bipartitioner (K = 2)",
		(*pipeline).partitionPlacement, func(Options) SpectrumSpec { return SpectrumSpec{} }},
	{VKP, "vkp", "direct vector k-partitioning",
		(*pipeline).partitionVKP, func(o Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: o.D}
		}},
	{Barnes, "barnes", "Barnes' transportation-rounded k-way algorithm",
		(*pipeline).partitionBarnes, func(Options) SpectrumSpec { return SpectrumSpec{} }},
	{HL, "hl", "Hendrickson-Leland median splitting (K a power of two)",
		(*pipeline).partitionHL, func(o Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: log2ceil(o.K)}
		}},
	{MultilevelMELO, "mlmelo", "multilevel V-cycle: coarsen, MELO the coarsest, uncoarsen + FM refine",
		(*pipeline).partitionMultilevelMELO, func(Options) SpectrumSpec { return SpectrumSpec{} }},
	{RecursiveBisection, "recbis", "recursive bisection on successive eigenvectors of one solve",
		(*pipeline).partitionRecursiveBisection, func(o Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: recbisDepth(o.K)}
		}},
	{TwoVectorTripartition, "trivec", "two-eigenvector 120-degree-sector tripartitioning (K = 3)",
		(*pipeline).partitionTwoVectorTripartition, func(Options) SpectrumSpec {
			return SpectrumSpec{Needed: true, Model: ModelPartitioningSpecific, D: 2}
		}},
}

// methodInfoOf returns the registry row for m, or nil if m is not a
// registered method. Rows are indexed by the iota value, checked once at
// init.
func methodInfoOf(m Method) *methodEntry {
	if m < 0 || int(m) >= len(methodTable) {
		return nil
	}
	return &methodTable[m]
}

func init() {
	for i, e := range methodTable {
		if int(e.method) != i {
			panic("spectral: method registry out of order at " + e.name)
		}
	}
}

// MethodNames lists every registered method name, in Method order —
// the single source the harness flag helps print.
func MethodNames() []string {
	names := make([]string, len(methodTable))
	for i, e := range methodTable {
		names[i] = e.name
	}
	return names
}

// MethodSummary returns a one-line description of the method, or "" for
// an unknown method.
func MethodSummary(m Method) string {
	if info := methodInfoOf(m); info != nil {
		return info.summary
	}
	return ""
}

// methodHelp renders the "melo|sb|…" alternation for error messages and
// flag help.
func methodHelp() string { return strings.Join(MethodNames(), "|") }

// log2ceil returns the smallest d with 2^d >= k.
func log2ceil(k int) int {
	d := 0
	for 1<<uint(d) < k {
		d++
	}
	return d
}

// recbisDepth is the number of non-trivial eigenvectors a
// RecursiveBisection run with k clusters consumes: one per recursion
// level.
func recbisDepth(k int) int {
	d := log2ceil(k)
	if d < 1 {
		d = 1
	}
	return d
}

// partitionMultilevelMELO is the multilevel V-cycle entry: coarsening
// and per-level refinement run in internal/multilevel; the coarsest
// netlist is solved by a nested flat pipeline sharing this run's
// eigensolver policy, so the resilience ladder and worker invariance
// carry over unchanged.
func (pl *pipeline) partitionMultilevelMELO(h *Netlist) (*Partitioning, error) {
	pl.enter(resilience.StageMultilevel)
	o := pl.o
	mo := multilevel.Options{
		K:            o.K,
		Threshold:    o.CoarsenThreshold,
		MaxLevels:    o.MaxLevels,
		RefinePasses: o.RefinePasses,
		MinFrac:      o.MinFrac,
		Model:        graph.PartitioningSpecific,
		Workers:      o.Parallelism,
	}
	solve := func(ctx context.Context, ch *Netlist) (*Partitioning, error) {
		sub := &pipeline{ctx: ctx, root: ctx, o: o, pol: pl.pol, stage: resilience.StageCliqueModel}
		defer sub.closeStage()
		return sub.coarsestMELO(ch)
	}
	p, _, err := multilevel.PartitionCtx(pl.ctx, h, mo, solve)
	return p, err
}

// coarsestMELO is the flat MELO pipeline run on the coarsest netlist of
// a V-cycle. It differs from partitionMELO in one way: coarse modules
// always carry accumulated areas, so the K = 2 split is area-balanced
// (BestBalancedSplitAreas) rather than count-balanced — a count balance
// over coarse modules would say nothing about the fine netlist.
func (pl *pipeline) coarsestMELO(h *Netlist) (*Partitioning, error) {
	order, err := pl.meloOrder(h)
	if err != nil {
		return nil, err
	}
	return pl.split(h, order, h.HasAreas())
}

// partitionRecursiveBisection shares the decomposition across all
// recursion levels: level d splits each of its subregions at a quantile
// of eigenvector d+1 (clamped), so K clusters consume ⌈log2 K⌉
// non-trivial eigenvectors from one solve.
func (pl *pipeline) partitionRecursiveBisection(h *Netlist) (*Partitioning, error) {
	_, dec, err := pl.decompose(h, graph.PartitioningSpecific, recbisDepth(pl.o.K))
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageSplit)
	return recbis.Partition(dec, pl.o.K)
}

func (pl *pipeline) partitionTwoVectorTripartition(h *Netlist) (*Partitioning, error) {
	if pl.o.K != 3 {
		return nil, fmt.Errorf("spectral: TwoVectorTripartition is a tripartitioner, got K = %d", pl.o.K)
	}
	_, dec, err := pl.decompose(h, graph.PartitioningSpecific, 2)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageSplit)
	return trivec.Partition(h, dec, trivec.Options{Workers: pl.o.Parallelism})
}
