// Package spectral is a from-scratch Go implementation of the spectral
// partitioning system of Alpert, Kahng and Yao, "Spectral Partitioning:
// The More Eigenvectors, The Better" (DAC 1995): the reduction from
// min-cut graph partitioning to vector partitioning, the MELO
// multiple-eigenvector ordering heuristic, and every baseline its
// evaluation compares against (SB, RSB, KP, SFC, an analytical-placement
// bipartitioner, plus FM refinement).
//
// The package is a façade over the internal subsystems; a typical
// pipeline is
//
//	h, _ := spectral.GenerateBenchmark("prim1", 1.0)   // or LoadNetlist
//	p, _ := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: 4, Method: spectral.MELO})
//	fmt.Println(spectral.NetCut(h, p), spectral.ScaledCost(h, p))
//
// See the examples/ directory for runnable programs and cmd/experiments
// for the paper's full evaluation.
package spectral

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"

	"repro/internal/barnes"
	"repro/internal/bench"
	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/fm"
	"repro/internal/graph"
	"repro/internal/hl"
	"repro/internal/hypergraph"
	"repro/internal/kp"
	"repro/internal/linalg"
	"repro/internal/melo"
	"repro/internal/paraboli"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/resilience"
	"repro/internal/rsb"
	"repro/internal/sb"
	"repro/internal/sfc"
	"repro/internal/trace"
	"repro/internal/vecpart"
	"repro/internal/vkp"
)

// Netlist is a circuit hypergraph: modules connected by multi-pin nets.
type Netlist = hypergraph.Hypergraph

// Partitioning assigns each module to one of K clusters.
type Partitioning = partition.Partition

// Method selects the partitioning algorithm.
type Method int

const (
	// MELO is the paper's multiple-eigenvector linear-ordering heuristic
	// (the default).
	MELO Method = iota
	// SB is spectral bipartitioning from the Fiedler vector (k = 2 only).
	SB
	// RSB is recursive spectral bipartitioning.
	RSB
	// KP is the Chan–Schlag–Zien k-eigenvector spectral k-way heuristic.
	KP
	// SFC orders vertices along a spacefilling curve through the spectral
	// embedding and splits the ordering.
	SFC
	// Placement is the analytical-placement bipartitioner (the PARABOLI
	// substitute; k = 2 only).
	Placement
	// VKP is the direct vector k-partitioning heuristic (the paper's
	// proposed future-work direction).
	VKP
	// Barnes is Barnes' transportation-rounded k-way algorithm [7].
	Barnes
	// HL is Hendrickson-Leland median splitting [29]; K must be a power
	// of two.
	HL
	// MultilevelMELO runs MELO through the multilevel V-cycle
	// (internal/multilevel): heavy-edge-matching coarsening until the
	// netlist fits under Options.CoarsenThreshold, a flat MELO solve on
	// the coarsest netlist, then level-by-level projection with FM/KL
	// refinement. Same objective as MELO at a fraction of the cost —
	// the only method practical at n ≈ 10⁵–10⁶.
	MultilevelMELO
	// RecursiveBisection recursively splits subregions at quantiles of
	// successive eigenvectors of ONE shared decomposition (NetworKit
	// style; contrast RSB, which re-eigensolves every subregion).
	// Arbitrary K.
	RecursiveBisection
	// TwoVectorTripartition divides the (v2, v3) spectral embedding
	// into three 120° sectors with a grid-searched orientation
	// (Richardson–Mucha–Porter); K must be 3.
	TwoVectorTripartition
)

// String returns the method name.
func (m Method) String() string {
	if info := methodInfoOf(m); info != nil {
		return info.name
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod converts a method name to a Method.
func ParseMethod(s string) (Method, error) {
	for _, info := range methodTable {
		if info.name == s {
			return info.method, nil
		}
	}
	return 0, fmt.Errorf("spectral: unknown method %q (want %s)", s, methodHelp())
}

// MarshalText encodes the method as its registry name, the spelling
// Options uses in JSON.
func (m Method) MarshalText() ([]byte, error) {
	info := methodInfoOf(m)
	if info == nil {
		return nil, fmt.Errorf("spectral: unknown method %d", int(m))
	}
	return []byte(info.name), nil
}

// UnmarshalText decodes a registered method name; the empty name is
// MELO, the default.
func (m *Method) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*m = MELO
		return nil
	}
	parsed, err := ParseMethod(string(b))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Options configures Partition. Its JSON spelling is the spectrald job
// body's and the daemon journal's; every field is omitted at its zero
// value, which selects the default.
type Options struct {
	// K is the number of clusters (default 2).
	K int `json:"k,omitempty"`
	// Method selects the algorithm (default MELO).
	Method Method `json:"method,omitempty"`
	// D is the number of non-trivial eigenvectors for MELO/SFC orderings
	// (default 10, the paper's main setting).
	D int `json:"d,omitempty"`
	// Scheme selects MELO's weighting scheme (0–3; default scheme #1).
	Scheme int `json:"scheme,omitempty"`
	// MinFrac is the balance bound for bipartitioning splits: the smaller
	// side holds at least this fraction of the modules (default 0.45, the
	// paper's Table 5 setting). Ignored for k > 2, where DP-RP's
	// restricted-partitioning bounds apply.
	MinFrac float64 `json:"minFrac,omitempty"`
	// Refine post-processes the partitioning with Fiduccia–Mattheyses
	// passes (the paper's iterative-improvement extension): direct FM
	// for k = 2, pairwise FM sweeps for k > 2.
	Refine bool `json:"refine,omitempty"`
	// CoarsenThreshold stops MultilevelMELO's coarsening once the
	// netlist has at most this many modules (default 128; never below
	// 2·K). Ignored by the flat methods.
	CoarsenThreshold int `json:"coarsenThreshold,omitempty"`
	// MaxLevels caps MultilevelMELO's coarsening depth (default 32).
	MaxLevels int `json:"maxLevels,omitempty"`
	// RefinePasses is MultilevelMELO's FM pass budget per uncoarsening
	// level (default 4; < 0 disables per-level refinement).
	RefinePasses int `json:"refinePasses,omitempty"`
	// Parallelism bounds the worker goroutines the numerical kernels
	// (row-sharded MatVec, block Gram–Schmidt reorthogonalization,
	// MELO's candidate scans, per-component eigensolves) may use for
	// this run. 0 selects the process-wide default (parallel.Limit(),
	// normally runtime.GOMAXPROCS, settable via spectrald -parallelism); 1
	// forces serial execution. The kernels fix their arithmetic order
	// independently of the worker count, so every setting produces the
	// same partitioning and the same ordering, bit for bit (see
	// DESIGN.md, "The parallelism model").
	Parallelism int `json:"parallelism,omitempty"`
}

// Validate reports whether the options are usable for partitioning h,
// with the same rules Partition applies (K range, D range, scheme,
// MinFrac, method). Callers that queue work asynchronously — like the
// spectrald job pool — use it to reject bad requests at submission
// time instead of failing the job later.
func (o Options) Validate(h *Netlist) error {
	if err := ValidateNetlist(h); err != nil {
		return err
	}
	return validateOptions(h, o, o.withDefaults())
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 2
	}
	if o.D == 0 {
		o.D = 10
	}
	if o.MinFrac == 0 {
		o.MinFrac = 0.45
	}
	return o
}

// PartitionCtx partitions the netlist into opts.K clusters with the
// selected method. A cancelled or expired ctx aborts the pipeline at the
// next iteration boundary of whatever stage is running (eigensolver
// step, ordering insertion, DP column) and returns ctx.Err() unwrapped,
// so errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) work directly.
//
// Any other failure is returned as a *PipelineError attributing the
// fault to its pipeline stage; panics in any stage are recovered into
// the same shape. Eigensolves run under the resilience retry ladder
// (seed restart → Krylov-cap escalation → dense fallback → eigenvector
// degradation; see internal/resilience), so a struggling solve degrades
// before it fails. Whatever path was taken, a nil error guarantees the
// returned partitioning is a complete, in-range K-way assignment.
func PartitionCtx(ctx context.Context, h *Netlist, opts Options) (*Partitioning, error) {
	return runPartition(ctx, h, nil, opts, resilience.EigenPolicy{})
}

// runPartition is the body behind PartitionCtx and PartitionWithSpectrum:
// sp, when non-nil, is offered to the pipeline for reuse, and tests
// inject an EigenPolicy carrying a FaultPlan to force specific ladder
// rungs end to end.
func runPartition(ctx context.Context, h *Netlist, sp *Spectrum, opts Options, pol resilience.EigenPolicy) (*Partitioning, error) {
	o := opts.withDefaults()
	pl := &pipeline{o: o, pol: pol, sp: sp}
	var p *Partitioning
	err := pl.guard(ctx, h, "partition",
		[]trace.Attr{trace.Str("method", o.Method.String()), trace.Int("k", o.K), trace.Int("d", o.D)},
		func() error { return validateOptions(h, opts, o) },
		func() (err error) {
			if p, err = pl.run(h); err != nil {
				return err
			}
			if err := checkPartitioning(h, p, o.K); err != nil {
				return &PipelineError{Stage: string(pl.stage), Method: o.Method, Err: err}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// pipeline carries one run's context, options and eigensolver policy,
// and tracks the stage currently executing so recovered panics and
// stage-agnostic errors are attributed to the right phase.
type pipeline struct {
	ctx   context.Context
	o     Options
	pol   resilience.EigenPolicy
	stage resilience.Stage
	// root is the context carrying the run's root trace span; each
	// stage span derives from it (stages are siblings, not a chain).
	// span is the currently open stage span and rspan the root span
	// itself; both are nil when tracing is off.
	root  context.Context
	span  *trace.Span
	rspan *trace.Span
	// sp, when non-nil, is a precomputed decomposition offered for
	// reuse; decompose consults it before solving (see
	// PartitionWithSpectrum).
	sp *Spectrum
	// seed, when non-nil, is a nearby netlist's spectrum offered as a
	// warm start (see DecomposeWarmCtxPolicy); decompose records how it
	// was used in warm.
	seed *Spectrum
	warm WarmInfo
}

// enter advances the pipeline to stage s: the previous stage's span
// ends and a new sibling span named after s opens under the root span.
// pl.ctx is rebased onto the new span so work inside the stage nests
// its own spans correctly.
func (pl *pipeline) enter(s resilience.Stage) {
	pl.stage = s
	pl.span.End()
	if pl.root != nil {
		pl.ctx, pl.span = trace.Start(pl.root, string(s))
	}
}

// closeStage ends the last open stage span (End is nil-safe and
// idempotent).
func (pl *pipeline) closeStage() { pl.span.End() }

// workers resolves the run's worker budget from Options.Parallelism
// (0 = process default).
func (pl *pipeline) workers() int { return parallel.Workers(pl.o.Parallelism) }

// eigenPolicy returns the run's eigensolver policy with the worker
// budget filled in. A policy injected with an explicit Workers value
// (tests) wins over the option.
func (pl *pipeline) eigenPolicy(workers int) resilience.EigenPolicy {
	pol := pl.pol
	if pol.Workers == 0 {
		pol.Workers = workers
	}
	return pol
}

// protect runs fn, converting a panic into a *PipelineError carrying the
// stage that was executing and the recovery stack.
func (pl *pipeline) protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PipelineError{
				Stage:    string(pl.stage),
				Method:   pl.o.Method,
				Err:      fmt.Errorf("panic: %v", r),
				Panicked: true,
				Stack:    debug.Stack(),
			}
		}
	}()
	return fn()
}

// guard is the one hardened prologue every façade operation runs
// through: netlist validation, the operation's own argument check, a
// pre-cancelled ctx, the root trace span op (attrs plus the module
// count), panic recovery, and *PipelineError attribution labelled with
// pl.o.Method. Context errors pass through unwrapped. body runs with
// pl bound to the span's context.
func (pl *pipeline) guard(ctx context.Context, h *Netlist, op string, attrs []trace.Attr, check, body func() error) (retErr error) {
	if err := ValidateNetlist(h); err != nil {
		return &PipelineError{Stage: string(resilience.StageValidate), Method: pl.o.Method, Err: err}
	}
	if err := check(); err != nil {
		return &PipelineError{Stage: string(resilience.StageValidate), Method: pl.o.Method, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, rspan := trace.Start(ctx, op, append(attrs, trace.Int("n", h.NumModules()))...)
	pl.ctx, pl.root, pl.rspan, pl.stage = ctx, ctx, rspan, resilience.StageCliqueModel
	defer func() {
		pl.closeStage()
		if retErr != nil {
			rspan.Annotate(trace.Str("error", retErr.Error()))
		}
		rspan.End()
	}()
	err := pl.protect(body)
	return wrapPipelineErr(pl.o.Method, pl.stage, err)
}

func (pl *pipeline) run(h *Netlist) (*Partitioning, error) {
	p, err := pl.dispatch(h)
	if err != nil || !pl.o.Refine {
		return p, err
	}
	pl.enter(resilience.StageRefine)
	if pl.o.K == 2 {
		res, err := fm.Refine(h, p, fm.Options{MinFrac: pl.o.MinFrac})
		if err != nil {
			return nil, err
		}
		return res.Partition, nil
	}
	res, err := fm.RefineKWay(h, p, fm.KWayOptions{})
	if err != nil {
		return nil, err
	}
	return res.Partition, nil
}

// dispatch routes the run to its method's pipeline via the method
// registry (methods.go) — the single dispatch point shared by the flat
// and multilevel paths.
func (pl *pipeline) dispatch(h *Netlist) (*Partitioning, error) {
	info := methodInfoOf(pl.o.Method)
	if info == nil {
		return nil, fmt.Errorf("spectral: unknown method %v", pl.o.Method)
	}
	return info.run(pl, h)
}

func (pl *pipeline) partitionRSB(h *Netlist) (*Partitioning, error) {
	pl.enter(resilience.StageSplit)
	return rsb.PartitionCtx(pl.ctx, h, rsb.Options{K: pl.o.K, Model: graph.PartitioningSpecific})
}

// decompose builds the clique-model graph and its d+1 smallest Laplacian
// eigenpairs via the resilience ladder, handling disconnected graphs per
// component. A precomputed spectrum on the pipeline that covers (model,
// d) is reused instead — no graph build, no eigensolve; an insufficient
// or mismatched spectrum is ignored and the full path runs. A warm-start
// seed is tried on the built graph: accepted outright, handed to the
// ladder as its attempt 0, or rejected for a cold solve.
func (pl *pipeline) decompose(h *Netlist, model graph.CliqueModel, d int) (*graph.Graph, *eigen.Decomposition, error) {
	want := d + 1
	if want > h.NumModules() {
		want = h.NumModules()
	}
	if pl.sp.satisfies(h.NumModules(), model, want) {
		trace.Add(pl.ctx, "spectrum.reuse", 1)
		dec, err := pl.sp.dec.Truncate(want)
		if err != nil {
			return nil, nil, err
		}
		return pl.sp.g, dec, nil
	}
	pl.enter(resilience.StageCliqueModel)
	g, err := graph.FromHypergraph(h, model)
	if err != nil {
		return nil, nil, err
	}
	pl.enter(resilience.StageEigen)
	var start []float64
	if pl.seed != nil {
		var accepted *eigen.Decomposition
		if accepted, start = pl.trySeed(g, model, want); accepted != nil {
			pl.settleWarm(WarmOutcomeAccepted)
			return g, accepted, nil
		}
	}
	dec, seeded, err := pl.solveComponents(g, want, start)
	if err != nil {
		return nil, nil, err
	}
	if pl.seed != nil {
		outcome := WarmOutcomeRejected
		if seeded {
			outcome = WarmOutcomeSeeded
		} else if start != nil {
			pl.warm.Reason = "seeded attempt not applicable (dense or disconnected) or not converged"
		}
		pl.settleWarm(outcome)
	}
	return g, dec, nil
}

// solveComponents runs the eigensolver ladder on g's Laplacian,
// reporting whether the ladder's warm attempt 0 from start produced the
// pairs. A disconnected graph is solved per component (cold; start is
// a whole-graph vector) and the eigenpairs merged by ascending
// eigenvalue — exact, because a disconnected Laplacian is
// block-diagonal so its spectrum is the union of the component spectra.
// This also keeps Lanczos away from the degenerate zero eigenvalue of
// multiplicity = #components, its worst case.
//
// Components are solved concurrently under the run's worker budget,
// splitting the budget between component-level concurrency and the
// kernels inside each solve. Each solve is worker-invariant and the
// results are merged in component order, so the decomposition is the
// same at every parallelism level.
func (pl *pipeline) solveComponents(g *graph.Graph, want int, start []float64) (*eigen.Decomposition, bool, error) {
	comps := g.Components()
	workers := pl.workers()
	if len(comps) <= 1 {
		sol, err := resilience.SolveEigenFrom(pl.ctx, g.Laplacian(), want, start, pl.eigenPolicy(workers))
		if err != nil {
			return nil, false, err
		}
		return sol.Dec, sol.Seeded, nil
	}
	conc := workers
	if conc > len(comps) {
		conc = len(comps)
	}
	inner := workers / conc
	if inner < 1 {
		inner = 1
	}
	pol := pl.eigenPolicy(inner)
	type pair struct {
		val  float64
		vec  []float64 // component-local entries
		back []int     // component-local index -> original vertex
	}
	type compOut struct {
		pairs []pair
		err   error
	}
	outs := make([]compOut, len(comps))
	tasks := make([]func(), len(comps))
	for ci := range comps {
		ci := ci
		comp := comps[ci]
		tasks[ci] = func() {
			if err := pl.ctx.Err(); err != nil {
				outs[ci].err = err
				return
			}
			if len(comp) == 1 {
				outs[ci].pairs = []pair{{val: 0, vec: []float64{1}, back: comp}}
				return
			}
			sub, back := g.Induce(comp)
			cw := want
			if cw > len(comp) {
				cw = len(comp)
			}
			sol, err := resilience.SolveEigen(pl.ctx, sub.Laplacian(), cw, pol)
			if err != nil {
				outs[ci].err = err
				return
			}
			ps := make([]pair, sol.Dec.D())
			for j := 0; j < sol.Dec.D(); j++ {
				ps[j] = pair{val: sol.Dec.Values[j], vec: sol.Dec.Vector(j), back: back}
			}
			outs[ci].pairs = ps
		}
	}
	parallel.Do(conc, tasks...)
	var pairs []pair
	for _, out := range outs { // first failing component (in order) wins
		if out.err != nil {
			return nil, false, out.err
		}
		pairs = append(pairs, out.pairs...)
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].val < pairs[b].val })
	if len(pairs) > want {
		pairs = pairs[:want]
	}
	vals := make([]float64, len(pairs))
	vecs := linalg.NewDense(g.N(), len(pairs))
	for j, pr := range pairs {
		vals[j] = pr.val
		for i, orig := range pr.back {
			vecs.Set(orig, j, pr.vec[i])
		}
	}
	return &eigen.Decomposition{Values: vals, Vectors: vecs}, false, nil
}

func (pl *pipeline) partitionMELO(h *Netlist) (*Partitioning, error) {
	order, err := pl.meloOrder(h)
	if err != nil {
		return nil, err
	}
	return pl.split(h, order, false)
}

// meloOrder decomposes h (or reuses the offered spectrum) and runs the
// MELO ordering with the run's D, Scheme and worker budget.
func (pl *pipeline) meloOrder(h *Netlist) ([]int, error) {
	g, dec, err := pl.decompose(h, graph.PartitioningSpecific, pl.o.D)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageOrdering)
	mo := melo.NewOptions()
	mo.D = pl.o.D
	mo.Scheme = melo.Scheme(pl.o.Scheme)
	mo.Workers = pl.o.Parallelism
	res, err := melo.OrderCtx(pl.ctx, g, dec, mo)
	if err != nil {
		return nil, err
	}
	return res.Order, nil
}

// split cuts an ordering into the run's K clusters: the best balanced
// split for K = 2 (area-balanced when byArea), DP-RP otherwise.
func (pl *pipeline) split(h *Netlist, order []int, byArea bool) (*Partitioning, error) {
	pl.enter(resilience.StageSplit)
	if pl.o.K == 2 {
		best := dprp.BestBalancedSplit
		if byArea {
			best = dprp.BestBalancedSplitAreas
		}
		res, err := best(h, order, pl.o.MinFrac)
		if err != nil {
			return nil, err
		}
		return res.Partition, nil
	}
	dp, err := dprp.PartitionCtx(pl.ctx, h, order, dprp.Options{K: pl.o.K})
	if err != nil {
		return nil, err
	}
	return dp.Partition, nil
}

func (pl *pipeline) partitionSB(h *Netlist) (*Partitioning, error) {
	if pl.o.K != 2 {
		return nil, fmt.Errorf("spectral: SB is a bipartitioner, got K = %d", pl.o.K)
	}
	g, dec, err := pl.decompose(h, graph.PartitioningSpecific, 1)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageSplit)
	res, err := sb.Bipartition(h, g, dec, pl.o.MinFrac)
	if err != nil {
		return nil, err
	}
	return res.Partition, nil
}

func (pl *pipeline) partitionKP(h *Netlist) (*Partitioning, error) {
	_, dec, err := pl.decompose(h, graph.Frankle, pl.o.K)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageSplit)
	ko := kp.Options{K: pl.o.K, MinSize: 1}
	if h.HasAreas() {
		// Heterogeneous areas: repair against the restricted-partitioning
		// area floor (the same A/(2k) the DP splitter uses) instead of
		// module counts.
		areas := make([]float64, h.NumModules())
		for i := range areas {
			areas[i] = h.Area(i)
		}
		ko.Areas = areas
		ko.MinArea, _ = dprp.AreaBounds(h.TotalArea(), pl.o.K)
	}
	return kp.Partition(dec, ko)
}

func (pl *pipeline) partitionSFC(h *Netlist) (*Partitioning, error) {
	_, dec, err := pl.decompose(h, graph.PartitioningSpecific, 2)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageOrdering)
	order, err := sfc.Order(dec, sfc.Options{D: 2, Curve: sfc.Hilbert})
	if err != nil {
		return nil, err
	}
	return pl.split(h, order, false)
}

func (pl *pipeline) partitionBarnes(h *Netlist) (*Partitioning, error) {
	pl.enter(resilience.StageCliqueModel)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageSplit)
	return barnes.PartitionCtx(pl.ctx, g, barnes.Options{K: pl.o.K, SignFlips: true})
}

func (pl *pipeline) partitionHL(h *Netlist) (*Partitioning, error) {
	d := 0
	for 1<<uint(d) < pl.o.K {
		d++
	}
	if 1<<uint(d) != pl.o.K {
		return nil, fmt.Errorf("spectral: HL requires K to be a power of two, got %d", pl.o.K)
	}
	_, dec, err := pl.decompose(h, graph.PartitioningSpecific, d)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageSplit)
	return hl.Partition(dec, d)
}

// partitionVKP grows all K clusters simultaneously in the D-dimensional
// vector space, maximizing Σ_h ‖Y_h‖², then refines with single-vector
// moves — the "more sophisticated vector partitioning heuristics"
// direction the paper's conclusion proposes.
func (pl *pipeline) partitionVKP(h *Netlist) (*Partitioning, error) {
	g, dec, err := pl.decompose(h, graph.PartitioningSpecific, pl.o.D)
	if err != nil {
		return nil, err
	}
	pl.enter(resilience.StageSplit)
	v, err := vecpart.MaxSumInstance(dec, pl.o.D, g.TotalDegree())
	if err != nil {
		return nil, err
	}
	res, err := vkp.Partition(v, vkp.Options{K: pl.o.K})
	if err != nil {
		return nil, err
	}
	return res.Partition, nil
}

func (pl *pipeline) partitionPlacement(h *Netlist) (*Partitioning, error) {
	if pl.o.K != 2 {
		return nil, fmt.Errorf("spectral: Placement is a bipartitioner, got K = %d", pl.o.K)
	}
	pl.enter(resilience.StageSplit)
	res, err := paraboli.BipartitionCtx(pl.ctx, h, paraboli.Options{Model: graph.PartitioningSpecific, MinFrac: pl.o.MinFrac})
	if err != nil {
		return nil, err
	}
	return res.Partition, nil
}

// NetCut returns the number of nets spanning more than one cluster.
func NetCut(h *Netlist, p *Partitioning) int { return partition.NetCut(h, p) }

// ScaledCost returns the Chan–Schlag–Zien Scaled Cost of a partitioning.
func ScaledCost(h *Netlist, p *Partitioning) float64 { return partition.ScaledCost(h, p) }

// RatioCut returns cut/(|C1|·|C2|) for a bipartitioning.
func RatioCut(h *Netlist, p *Partitioning) float64 { return partition.RatioCut(h, p) }

// LoadNetlist parses a netlist in the text interchange format (see
// internal/hypergraph: `net <name> <module> <module> ...` lines).
func LoadNetlist(r io.Reader) (string, *Netlist, error) { return hypergraph.Read(r) }

// SaveNetlist writes a netlist in the text interchange format.
func SaveNetlist(w io.Writer, name string, h *Netlist) error { return hypergraph.Write(w, name, h) }

// LoadHMetis parses a netlist in the hMETIS hypergraph exchange format
// (fmt 0, 1, 10 and 11; module weights become areas).
func LoadHMetis(r io.Reader) (*Netlist, error) { return hypergraph.ReadHMetis(r) }

// SaveHMetis writes a netlist in hMETIS format.
func SaveHMetis(w io.Writer, h *Netlist) error { return hypergraph.WriteHMetis(w, h) }

// GenerateBenchmark synthesizes one of the paper's Table 1 benchmark
// circuits (bm1, prim1, prim2, test02…test06, struct, 19ks, biomed,
// industry2) at the given scale (1 = published size).
func GenerateBenchmark(name string, scale float64) (*Netlist, error) {
	return GenerateBenchmarkSeeded(name, scale, 0)
}

// GenerateBenchmarkSeeded is GenerateBenchmark with an explicit seed
// for the generator's random-net draw: distinct seeds give distinct
// reproducible instances with identical published statistics. Seed 0
// selects the canonical instance GenerateBenchmark produces.
func GenerateBenchmarkSeeded(name string, scale float64, seed int64) (*Netlist, error) {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return nil, fmt.Errorf("spectral: scale = %v, want finite > 0", scale)
	}
	c, err := bench.Lookup(name)
	if err != nil {
		return nil, err
	}
	return bench.GenerateSeeded(c.Scaled(scale), seed)
}

// Benchmarks lists the names of the registered Table 1 circuits.
func Benchmarks() []string {
	var names []string
	for _, c := range bench.Table1 {
		names = append(names, c.Name)
	}
	return names
}
