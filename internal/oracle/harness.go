package oracle

import (
	"context"
	"fmt"
	"math"
	"sort"

	spectral "repro"
	"repro/internal/barnes"
	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/hl"
	"repro/internal/hypergraph"
	"repro/internal/kp"
	"repro/internal/melo"
	"repro/internal/paraboli"
	"repro/internal/partition"
	"repro/internal/recbis"
	"repro/internal/rsb"
	"repro/internal/sb"
	"repro/internal/sfc"
	"repro/internal/trivec"
	"repro/internal/vecpart"
	"repro/internal/vkp"
)

// Violation is one failed oracle check.
type Violation struct {
	Case   string `json:"case"`
	Method string `json:"method"`
	Detail string `json:"detail"`
}

// MethodStats aggregates one method's differential results over a
// corpus.
type MethodStats struct {
	Method string `json:"method"`
	// Instances counts corpus cases the method ran on.
	Instances int `json:"instances"`
	// Optimal counts instances where the heuristic matched the exact
	// optimum cut.
	Optimal int `json:"optimal"`
	// MeanGap and MaxGap are relative optimality gaps
	// (cut − exact)/max(1, exact).
	MeanGap float64 `json:"mean_gap"`
	MaxGap  float64 `json:"max_gap"`

	sumGap float64
}

// Report is the differential harness output, serialized by cmd/oracle
// into BENCH_oracle.json.
type Report struct {
	Seed       int64         `json:"seed"`
	Cases      int           `json:"cases"`
	Methods    []MethodStats `json:"methods"`
	Violations []Violation   `json:"violations"`
}

// caseEnv holds per-case shared state: the clique graphs and their full
// dense eigendecompositions (the exact d = n references every method
// draws from, so the harness isolates algorithm bugs from eigensolver
// noise).
type caseEnv struct {
	h        *hypergraph.Hypergraph
	g        *graph.Graph // PartitioningSpecific clique model
	dec      *eigen.Decomposition
	gFrankle *graph.Graph
	decFr    *eigen.Decomposition
	exact    map[string]*Exact
}

func newCaseEnv(h *hypergraph.Hypergraph) (*caseEnv, error) {
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		return nil, err
	}
	dec, err := eigen.SymEig(g.LaplacianDense())
	if err != nil {
		return nil, err
	}
	gf, err := graph.FromHypergraph(h, graph.Frankle)
	if err != nil {
		return nil, err
	}
	decf, err := eigen.SymEig(gf.LaplacianDense())
	if err != nil {
		return nil, err
	}
	return &caseEnv{h: h, g: g, dec: dec, gFrankle: gf, decFr: decf, exact: map[string]*Exact{}}, nil
}

// exactFor memoizes ExactKWay per (k, balance) within a case.
func (e *caseEnv) exactFor(k int, bal Balance) (*Exact, error) {
	key := fmt.Sprintf("%d/%d/%d/%g/%g", k, bal.MinSize, bal.MaxSize, bal.MinArea, bal.MaxArea)
	if ex, ok := e.exact[key]; ok {
		return ex, nil
	}
	ex, err := ExactKWay(e.h, k, bal)
	if err != nil {
		return nil, err
	}
	e.exact[key] = ex
	return ex, nil
}

// runResult is one method's output on one case.
type runResult struct {
	p   *partition.Partition
	k   int
	bal Balance
	// problems lists reported-value mismatches detected inside the
	// runner (reported cut ≠ recomputed cut, DP cost ≠ exact, …).
	problems []string
}

type runner struct {
	name string
	// run returns (nil, nil) when the method does not apply to the case
	// (e.g. k exceeds n).
	run func(e *caseEnv) (*runResult, error)
}

// meloD returns the d MELO-family methods use on an n-module netlist.
func meloD(n int) int {
	d := 10
	if d > n-1 {
		d = n - 1
	}
	return d
}

func dpBounds(n, k int) (lo, hi int) {
	lo = n / (2 * k)
	if lo < 1 {
		lo = 1
	}
	hi = (2*n + k - 1) / k
	if hi > n {
		hi = n
	}
	return lo, hi
}

const minFrac = 0.45

func balancedMin(n int) int { return BalancedMinSize(n, minFrac) }

// areaBalancedMin is the area-balance floor BestBalancedSplitAreas
// actually guarantees for this ordering: minFrac of the total area,
// relaxed to the most balanced achievable split when no position
// reaches the fraction.
func areaBalancedMin(h *hypergraph.Hypergraph, order []int) float64 {
	total := h.TotalArea()
	lo := minFrac * total
	maxMin, prefix := 0.0, 0.0
	for s := 1; s < len(order); s++ {
		prefix += h.Area(order[s-1])
		if m := math.Min(prefix, total-prefix); m > maxMin {
			maxMin = m
		}
	}
	if lo > maxMin {
		lo = maxMin
	}
	return lo
}

// checkSplitResult verifies a SplitResult's reported cut against the
// independent recomputation and (for count-balanced sweeps) against the
// exact best split of the same ordering.
func checkSplitResult(h *hypergraph.Hypergraph, res dprp.SplitResult, order []int, exactSweep bool, byArea bool) []string {
	var problems []string
	if err := CheckReportedCut(h, res.Partition, int(res.Cut)); err != nil {
		problems = append(problems, fmt.Sprintf("split: %v", err))
	}
	if exactSweep && order != nil {
		want, err := ExactBestSplitCut(h, order, minFrac, byArea)
		if err != nil {
			problems = append(problems, fmt.Sprintf("exact sweep: %v", err))
		} else if int(res.Cut) != want {
			problems = append(problems, fmt.Sprintf("sweep returned cut %d, exact best split of same ordering is %d", int(res.Cut), want))
		}
	}
	return problems
}

func runners() []runner {
	return []runner{
		{name: "sb", run: func(e *caseEnv) (*runResult, error) {
			n := e.h.NumModules()
			res, err := sb.Bipartition(e.h, e.g, e.dec, minFrac)
			if err != nil {
				return nil, err
			}
			order, err := sb.FiedlerOrder(e.g, e.dec)
			if err != nil {
				return nil, err
			}
			return &runResult{p: res.Partition, k: 2, bal: Balance{MinSize: balancedMin(n)},
				problems: checkSplitResult(e.h, res, order, true, false)}, nil
		}},
		{name: "sb-ratio", run: func(e *caseEnv) (*runResult, error) {
			res, err := sb.RatioCutBipartition(e.h, e.g, e.dec)
			if err != nil {
				return nil, err
			}
			var problems []string
			// The reported value is the ratio cut; recompute it.
			want := partition.RatioCut(e.h, res.Partition)
			if math.Abs(res.Cut-want) > 1e-9 {
				problems = append(problems, fmt.Sprintf("reported ratio %.12g, recomputed %.12g", res.Cut, want))
			}
			return &runResult{p: res.Partition, k: 2, bal: Balance{}, problems: problems}, nil
		}},
		{name: "rsb-k2", run: rsbRunner(2)},
		{name: "rsb-k3", run: rsbRunner(3)},
		{name: "melo-k2", run: func(e *caseEnv) (*runResult, error) {
			n := e.h.NumModules()
			mo := melo.NewOptions()
			mo.D = meloD(n)
			res, err := melo.Order(e.g, e.dec, mo)
			if err != nil {
				return nil, err
			}
			if e.h.HasAreas() {
				split, err := dprp.BestBalancedSplitAreas(e.h, res.Order, minFrac)
				if err != nil {
					return nil, err
				}
				return &runResult{p: split.Partition, k: 2, bal: Balance{MinArea: areaBalancedMin(e.h, res.Order)},
					problems: checkSplitResult(e.h, split, res.Order, true, true)}, nil
			}
			split, err := dprp.BestBalancedSplit(e.h, res.Order, minFrac)
			if err != nil {
				return nil, err
			}
			return &runResult{p: split.Partition, k: 2, bal: Balance{MinSize: balancedMin(n)},
				problems: checkSplitResult(e.h, split, res.Order, true, false)}, nil
		}},
		{name: "melo-dp-k3", run: dpRunner(3)},
		{name: "melo-dp-k4", run: dpRunner(4)},
		{name: "kp-k2", run: kpRunner(2)},
		{name: "kp-k3", run: kpRunner(3)},
		{name: "sfc", run: func(e *caseEnv) (*runResult, error) {
			n := e.h.NumModules()
			if e.dec.D() < 3 {
				return nil, nil
			}
			order, err := sfc.Order(e.dec, sfc.Options{D: 2, Curve: sfc.Hilbert})
			if err != nil {
				return nil, err
			}
			split, err := dprp.BestBalancedSplit(e.h, order, minFrac)
			if err != nil {
				return nil, err
			}
			return &runResult{p: split.Partition, k: 2, bal: Balance{MinSize: balancedMin(n)},
				problems: checkSplitResult(e.h, split, order, true, false)}, nil
		}},
		{name: "placement", run: func(e *caseEnv) (*runResult, error) {
			n := e.h.NumModules()
			res, err := paraboli.Bipartition(e.h, paraboli.Options{Model: graph.PartitioningSpecific, MinFrac: minFrac})
			if err != nil {
				return nil, err
			}
			return &runResult{p: res.Partition, k: 2, bal: Balance{MinSize: balancedMin(n)},
				problems: checkSplitResult(e.h, res, nil, false, false)}, nil
		}},
		{name: "barnes-k2", run: barnesRunner(2)},
		{name: "barnes-k3", run: barnesRunner(3)},
		{name: "hl-d1", run: hlRunner(1)},
		{name: "hl-d2", run: hlRunner(2)},
		{name: "vkp-k2", run: vkpRunner(2)},
		{name: "vkp-k3", run: vkpRunner(3)},
		{name: "mlmelo-k2", run: mlmeloRunner(2)},
		{name: "mlmelo-k3", run: mlmeloRunner(3)},
		{name: "recbis-k2", run: recbisRunner(2)},
		{name: "recbis-k4", run: recbisRunner(4)},
		{name: "trivec-k3", run: trivecRunner()},
	}
}

// mlmeloRunner exercises the full multilevel V-cycle through the façade.
// The corpus netlists are tiny, so the coarsening threshold is forced
// down to 4 to guarantee real coarsen/project/refine levels rather than
// a degenerate flat solve. No balance window is claimed: projection plus
// FM guarantees feasibility (complete assignment, no empty cluster) but
// only a relaxed balance on chunky coarse modules.
func mlmeloRunner(k int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		if k > e.h.NumModules() {
			return nil, nil
		}
		p, err := spectral.PartitionCtx(context.Background(), e.h, spectral.Options{
			K: k, Method: spectral.MultilevelMELO, CoarsenThreshold: 4,
		})
		if err != nil {
			return nil, err
		}
		return &runResult{p: p, k: k, bal: Balance{}}, nil
	}
}

// recbisRunner checks shared-decomposition recursive bisection against
// the exact optimum using the case's dense d = n decomposition.
func recbisRunner(k int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		if k > e.h.NumModules() {
			return nil, nil
		}
		p, err := recbis.Partition(e.dec, k)
		if err != nil {
			return nil, err
		}
		return &runResult{p: p, k: k, bal: Balance{}}, nil
	}
}

// trivecRunner checks the two-eigenvector 120°-sector tripartition; it
// needs n >= 3 and at least three eigenpairs (v1, v2, v3).
func trivecRunner() func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		if e.h.NumModules() < 3 || e.dec.D() < 3 {
			return nil, nil
		}
		p, err := trivec.Partition(e.h, e.dec, trivec.Options{})
		if err != nil {
			return nil, err
		}
		return &runResult{p: p, k: 3, bal: Balance{}}, nil
	}
}

func rsbRunner(k int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		if k > e.h.NumModules() {
			return nil, nil
		}
		p, err := rsb.Partition(e.h, rsb.Options{K: k, Model: graph.PartitioningSpecific})
		if err != nil {
			return nil, err
		}
		return &runResult{p: p, k: k, bal: Balance{}}, nil
	}
}

func dpRunner(k int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		n := e.h.NumModules()
		if k > n {
			return nil, nil
		}
		mo := melo.NewOptions()
		mo.D = meloD(n)
		res, err := melo.Order(e.g, e.dec, mo)
		if err != nil {
			return nil, err
		}
		dp, err := dprp.Partition(e.h, res.Order, dprp.Options{K: k})
		if err != nil {
			return nil, err
		}
		var problems []string
		// Reported Scaled Cost must match the metric recomputation …
		if sc := partition.ScaledCost(e.h, dp.Partition); math.Abs(sc-dp.ScaledCost) > 1e-9 {
			problems = append(problems, fmt.Sprintf("DP reported ScaledCost %.12g, metrics recompute %.12g", dp.ScaledCost, sc))
		}
		// The DP's balance window: counts for unit areas, area sums for
		// weighted netlists.
		var bal Balance
		if e.h.HasAreas() {
			loA, hiA := dprp.AreaBounds(e.h.TotalArea(), k)
			bal = Balance{MinArea: loA, MaxArea: hiA}
		} else {
			lo, hi := dpBounds(n, k)
			bal = Balance{MinSize: lo, MaxSize: hi}
		}
		// … and must equal the exact optimum over contiguous splits of
		// the same ordering, which the DP claims to minimize.
		exact, _, err := ExactOrderSplit(e.h, res.Order, k, bal)
		if err == nil && dp.ScaledCost > exact+1e-9 {
			problems = append(problems, fmt.Sprintf("DP ScaledCost %.12g above exact contiguous optimum %.12g", dp.ScaledCost, exact))
		}
		return &runResult{p: dp.Partition, k: k, bal: bal, problems: problems}, nil
	}
}

func kpRunner(k int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		n := e.h.NumModules()
		if k > n {
			return nil, nil
		}
		ko := kp.Options{K: k, MinSize: 1}
		bal := Balance{}
		if e.h.HasAreas() {
			// Mirror the facade: repair against the restricted-partitioning
			// area floor, and hold KP to it.
			areas := make([]float64, n)
			for i := range areas {
				areas[i] = e.h.Area(i)
			}
			ko.Areas = areas
			ko.MinArea, _ = dprp.AreaBounds(e.h.TotalArea(), k)
			bal = Balance{MinArea: ko.MinArea}
		}
		p, err := kp.Partition(e.decFr, ko)
		if err != nil {
			return nil, err
		}
		return &runResult{p: p, k: k, bal: bal}, nil
	}
}

func barnesRunner(k int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		n := e.h.NumModules()
		if k > n {
			return nil, nil
		}
		p, err := barnes.PartitionCtx(context.Background(), e.g, barnes.Options{K: k, SignFlips: true})
		if err != nil {
			return nil, err
		}
		return &runResult{p: p, k: k, bal: Balance{MinSize: n / k, MaxSize: (n + k - 1) / k}}, nil
	}
}

func hlRunner(d int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		n := e.h.NumModules()
		k := 1 << uint(d)
		if k > n || e.dec.D() < d+1 {
			return nil, nil
		}
		p, err := hl.Partition(e.dec, d)
		if err != nil {
			return nil, err
		}
		// Nested median splits bound every cluster's size exactly.
		lo, hi := n, 0
		for _, s := range medianSizes(n, d) {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		return &runResult{p: p, k: k, bal: Balance{MinSize: lo, MaxSize: hi}}, nil
	}
}

// medianSizes returns the cluster sizes d rounds of median splitting
// produce on n vertices.
func medianSizes(n, d int) []int {
	sizes := []int{n}
	for i := 0; i < d; i++ {
		var next []int
		for _, s := range sizes {
			next = append(next, s/2, s-s/2)
		}
		sizes = next
	}
	return sizes
}

func vkpRunner(k int) func(e *caseEnv) (*runResult, error) {
	return func(e *caseEnv) (*runResult, error) {
		n := e.h.NumModules()
		if k > n {
			return nil, nil
		}
		v, err := vecpart.MaxSumInstance(e.dec, meloD(n), e.g.TotalDegree())
		if err != nil {
			return nil, err
		}
		res, err := vkp.Partition(v, vkp.Options{K: k})
		if err != nil {
			return nil, err
		}
		var problems []string
		// Reported objective must match Σ_h ‖Y_h‖² recomputed from the
		// final partition.
		if want := v.SumSquaredSubsets(res.Partition); math.Abs(res.Objective-want) > 1e-6*(1+math.Abs(want)) {
			problems = append(problems, fmt.Sprintf("VKP reported objective %.12g, recomputed %.12g", res.Objective, want))
		}
		lo, hi := dpBounds(n, k)
		return &runResult{p: res.Partition, k: k, bal: Balance{MinSize: lo, MaxSize: hi}, problems: problems}, nil
	}
}

// Run executes the differential harness over the corpus: every method on
// every applicable case, with feasibility, reported-cut, and optimality
// checks. The returned report carries per-method gap statistics and the
// full violation list (empty when the repo is healthy).
func Run(seed int64, cases []Case) (*Report, error) {
	rep := &Report{Seed: seed, Cases: len(cases), Violations: []Violation{}}
	stats := map[string]*MethodStats{}
	rs := runners()
	for _, c := range cases {
		env, err := newCaseEnv(c.H)
		if err != nil {
			return nil, fmt.Errorf("case %s: %v", c.Name, err)
		}
		for _, r := range rs {
			res, err := r.run(env)
			if err != nil {
				rep.Violations = append(rep.Violations, Violation{Case: c.Name, Method: r.name, Detail: fmt.Sprintf("run failed: %v", err)})
				continue
			}
			if res == nil {
				continue
			}
			st := stats[r.name]
			if st == nil {
				st = &MethodStats{Method: r.name}
				stats[r.name] = st
			}
			st.Instances++
			for _, pr := range res.problems {
				rep.Violations = append(rep.Violations, Violation{Case: c.Name, Method: r.name, Detail: pr})
			}
			if err := CheckFeasible(c.H, res.p, res.k, res.bal); err != nil {
				rep.Violations = append(rep.Violations, Violation{Case: c.Name, Method: r.name, Detail: err.Error()})
				continue
			}
			exact, err := env.exactFor(res.k, res.bal)
			if err != nil {
				rep.Violations = append(rep.Violations, Violation{Case: c.Name, Method: r.name, Detail: fmt.Sprintf("exact reference: %v", err)})
				continue
			}
			cut, err := c.H.CutSize(res.p.Assign)
			if err != nil {
				return nil, err
			}
			if cut < exact.Cut {
				rep.Violations = append(rep.Violations, Violation{Case: c.Name, Method: r.name,
					Detail: fmt.Sprintf("heuristic cut %d below exact optimum %d — oracle or feasibility bug", cut, exact.Cut)})
				continue
			}
			gap := float64(cut-exact.Cut) / math.Max(1, float64(exact.Cut))
			st.sumGap += gap
			if gap > st.MaxGap {
				st.MaxGap = gap
			}
			if cut == exact.Cut {
				st.Optimal++
			}
		}
	}
	for _, st := range stats {
		if st.Instances > 0 {
			st.MeanGap = st.sumGap / float64(st.Instances)
		}
		rep.Methods = append(rep.Methods, *st)
	}
	sort.Slice(rep.Methods, func(a, b int) bool { return rep.Methods[a].Method < rep.Methods[b].Method })
	return rep, nil
}
