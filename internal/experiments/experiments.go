// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthesized benchmark suite:
//
//	Table 1 — benchmark characteristics
//	Table 2 — MELO weighting-scheme comparison
//	Table 3 — effect of the number of eigenvectors d
//	Table 4 — multi-way Scaled Cost: MELO vs RSB, KP, SFC
//	Table 5 — balanced 2-way cuts: MELO vs SB and the PARABOLI substitute,
//	          with MELO ordering+split runtimes for d = 2 and d = 10
//	Figure 1 — the graph → vector-partitioning reduction on an example
//	Figure 2 — a step-by-step MELO trace
//
// Absolute values differ from the paper (synthetic circuits, different
// eigensolver); EXPERIMENTS.md records the paper-vs-measured comparison
// and the qualitative shapes that must hold.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/dprp"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/melo"
	"repro/internal/resilience"
)

// Config controls an experiment run.
type Config struct {
	// Ctx bounds the whole run; a cancelled or expired context aborts
	// eigensolves, orderings and DP splits at their next iteration
	// boundary. Nil means context.Background().
	Ctx context.Context
	// Out receives the rendered table.
	Out io.Writer
	// Scale shrinks every benchmark (1 = the published sizes). The
	// qualitative comparisons hold at any scale; small scales run in
	// seconds.
	Scale float64
	// D is MELO's eigenvector count (the paper's experiments use 10).
	D int
	// Benchmarks restricts the suite (nil = all of Table 1).
	Benchmarks []string
}

// WithDefaults fills unset fields: Background context, Scale 1, D 10,
// all benchmarks.
func (c Config) WithDefaults() Config {
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.D <= 0 {
		c.D = 10
	}
	if len(c.Benchmarks) == 0 {
		for _, b := range bench.Table1 {
			c.Benchmarks = append(c.Benchmarks, b.Name)
		}
	}
	return c
}

// Lab caches the expensive artifacts — generated netlists, clique-model
// graphs, eigendecompositions and MELO orderings — across experiments in
// one run. The caches are safe for concurrent use; the table drivers
// parallelize across benchmarks (distinct benchmarks never share cache
// keys, so the occasional duplicated computation race is impossible).
type Lab struct {
	cfg    Config
	mu     sync.Mutex
	nets   map[string]*hypergraph.Hypergraph
	graphs map[string]*graph.Graph         // key: name/model
	decs   map[string]*eigen.Decomposition // key: name/model/d
	orders map[string]*melo.Result         // key: name/d/scheme
}

// NewLab creates a Lab for the given config.
func NewLab(cfg Config) *Lab {
	return &Lab{
		cfg:    cfg.WithDefaults(),
		nets:   map[string]*hypergraph.Hypergraph{},
		graphs: map[string]*graph.Graph{},
		decs:   map[string]*eigen.Decomposition{},
		orders: map[string]*melo.Result{},
	}
}

// Config returns the lab's (defaulted) configuration.
func (l *Lab) Config() Config { return l.cfg }

// Netlist returns the (cached) synthesized hypergraph for a benchmark.
func (l *Lab) Netlist(name string) (*hypergraph.Hypergraph, error) {
	l.mu.Lock()
	if h, ok := l.nets[name]; ok {
		l.mu.Unlock()
		return h, nil
	}
	l.mu.Unlock()
	c, err := bench.Lookup(name)
	if err != nil {
		return nil, err
	}
	h, err := bench.Generate(c.Scaled(l.cfg.Scale))
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.nets[name] = h
	l.mu.Unlock()
	return h, nil
}

// Graph returns the (cached) clique-model graph for a benchmark.
func (l *Lab) Graph(name string, model graph.CliqueModel) (*graph.Graph, error) {
	key := fmt.Sprintf("%s/%v", name, model)
	l.mu.Lock()
	if g, ok := l.graphs[key]; ok {
		l.mu.Unlock()
		return g, nil
	}
	l.mu.Unlock()
	h, err := l.Netlist(name)
	if err != nil {
		return nil, err
	}
	g, err := graph.FromHypergraph(h, model)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.graphs[key] = g
	l.mu.Unlock()
	return g, nil
}

// Decomposition returns the (cached) d+1 smallest Laplacian eigenpairs of
// a benchmark's clique-model graph.
func (l *Lab) Decomposition(name string, model graph.CliqueModel, d int) (*eigen.Decomposition, error) {
	key := fmt.Sprintf("%s/%v/%d", name, model, d)
	l.mu.Lock()
	if dec, ok := l.decs[key]; ok {
		l.mu.Unlock()
		return dec, nil
	}
	// A larger cached decomposition can serve smaller d.
	for dd := d + 1; dd <= d+16; dd++ {
		if dec, ok := l.decs[fmt.Sprintf("%s/%v/%d", name, model, dd)]; ok {
			l.mu.Unlock()
			return dec, nil
		}
	}
	l.mu.Unlock()
	g, err := l.Graph(name, model)
	if err != nil {
		return nil, err
	}
	want := d + 1
	if want > g.N() {
		want = g.N()
	}
	sol, err := resilience.SolveEigen(l.cfg.Ctx, g.Laplacian(), want, resilience.EigenPolicy{})
	if err != nil {
		if cerr := l.cfg.Ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("experiments: %s eigensolve: %v", name, err)
	}
	dec := sol.Dec
	l.mu.Lock()
	l.decs[key] = dec
	l.mu.Unlock()
	return dec, nil
}

// MeloOrdering builds (and caches) a MELO ordering with the given d and
// scheme; orderings are independent of the split count k, so one ordering
// serves every downstream split.
func (l *Lab) MeloOrdering(name string, d int, scheme melo.Scheme) (*melo.Result, error) {
	key := fmt.Sprintf("%s/%d/%v", name, d, scheme)
	l.mu.Lock()
	if r, ok := l.orders[key]; ok {
		l.mu.Unlock()
		return r, nil
	}
	l.mu.Unlock()
	g, err := l.Graph(name, graph.PartitioningSpecific)
	if err != nil {
		return nil, err
	}
	dec, err := l.Decomposition(name, graph.PartitioningSpecific, d)
	if err != nil {
		return nil, err
	}
	opts := melo.NewOptions()
	opts.D = d
	opts.Scheme = scheme
	r, err := melo.OrderCtx(l.cfg.Ctx, g, dec, opts)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.orders[key] = r
	l.mu.Unlock()
	return r, nil
}

// MeloBestScaledCost splits the cached MELO orderings for every scheme
// and every d in ds, returning the best Scaled Cost — the paper's Table 4
// protocol ("the best observed from splitting each of the ten
// orderings"). For k = 2 the split is the best ratio-cut split over all
// positions (Scaled Cost at k = 2 IS the ratio cut, and RSB enjoys the
// same unrestricted split); for k > 2 DP-RP is used with the widened
// restricted-partitioning bounds [n/(6k), 3n/k].
func (l *Lab) MeloBestScaledCost(name string, ds []int, k int) (float64, error) {
	h, err := l.Netlist(name)
	if err != nil {
		return 0, err
	}
	n := h.NumModules()
	lo := n / (6 * k)
	if lo < 1 {
		lo = 1
	}
	hi := 3 * n / k
	if hi > n {
		hi = n
	}
	best := 0.0
	first := true
	for _, d := range ds {
		for s := melo.Scheme(0); s < melo.NumSchemes; s++ {
			res, err := l.MeloOrdering(name, d, s)
			if err != nil {
				return 0, err
			}
			var sc float64
			if k == 2 {
				split, err := dprp.BestRatioCutSplit(h, res.Order)
				if err != nil {
					return 0, err
				}
				sc = split.Cut // ratio cut == Scaled Cost for k = 2
			} else {
				dp, err := dprp.PartitionCtx(l.cfg.Ctx, h, res.Order, dprp.Options{K: k, MinSize: lo, MaxSize: hi})
				if err != nil {
					return 0, err
				}
				sc = dp.ScaledCost
			}
			if first || sc < best {
				best = sc
				first = false
			}
		}
	}
	return best, nil
}

// MeloScaledCost builds a MELO ordering and splits it k ways with DP-RP,
// returning the Scaled Cost.
func (l *Lab) MeloScaledCost(name string, d int, scheme melo.Scheme, k int) (float64, error) {
	h, err := l.Netlist(name)
	if err != nil {
		return 0, err
	}
	res, err := l.MeloOrdering(name, d, scheme)
	if err != nil {
		return 0, err
	}
	dp, err := dprp.PartitionCtx(l.cfg.Ctx, h, res.Order, dprp.Options{K: k})
	if err != nil {
		return 0, err
	}
	return dp.ScaledCost, nil
}

// MeloBalancedCut builds a MELO ordering and returns the best >= minFrac
// balanced split's net cut, together with the ordering+split runtime
// (excluding the eigensolve, matching the paper's Table 5 runtimes).
func (l *Lab) MeloBalancedCut(name string, d int, scheme melo.Scheme, minFrac float64) (float64, time.Duration, error) {
	h, err := l.Netlist(name)
	if err != nil {
		return 0, 0, err
	}
	g, err := l.Graph(name, graph.PartitioningSpecific)
	if err != nil {
		return 0, 0, err
	}
	dec, err := l.Decomposition(name, graph.PartitioningSpecific, d)
	if err != nil {
		return 0, 0, err
	}
	opts := melo.NewOptions()
	opts.D = d
	opts.Scheme = scheme
	start := time.Now()
	res, err := melo.OrderCtx(l.cfg.Ctx, g, dec, opts)
	if err != nil {
		return 0, 0, err
	}
	split, err := dprp.BestBalancedSplit(h, res.Order, minFrac)
	if err != nil {
		return 0, 0, err
	}
	return split.Cut, time.Since(start), nil
}

// forEachBenchmark evaluates fn for every configured benchmark
// concurrently (bounded by GOMAXPROCS) and returns the results in suite
// order. The first error wins.
func forEachBenchmark[T any](l *Lab, fn func(name string) (T, error)) ([]T, error) {
	names := l.cfg.Benchmarks
	results := make([]T, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = fn(name)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// table is a minimal fixed-width table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer, title string) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintln(w, title)
	line := make([]byte, 0, total)
	for i := 0; i < total; i++ {
		line = append(line, '-')
	}
	fmt.Fprintln(w, string(line))
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.header)
	fmt.Fprintln(w, string(line))
	for _, r := range t.rows {
		printRow(r)
	}
	fmt.Fprintln(w, string(line))
}

// geomean-free average improvement helper: mean over rows of
// (base − x)/base in percent.
func avgImprovement(base, x []float64) float64 {
	if len(base) == 0 {
		return 0
	}
	var s float64
	n := 0
	for i := range base {
		if base[i] > 0 {
			s += (base[i] - x[i]) / base[i] * 100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
