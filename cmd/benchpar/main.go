// Command benchpar measures the serial-vs-parallel throughput of the
// hot numerical kernels (row-sharded MatVec, Lanczos, MELO ordering)
// and writes a machine-readable baseline to BENCH_parallel.json.
//
// Usage:
//
//	benchpar [-n 20000] [-workers 0] [-reps 5] [-out BENCH_parallel.json]
//	         [-trace out.jsonl] [-scaling 1,2,4]
//	         [-compare BENCH_parallel.json] [-tolerance 1.5x] [-force]
//	         [-max-trace-overhead 1.02]
//
// The report records runtime.NumCPU so a baseline captured on a small
// machine is not mistaken for a scaling claim: speedups near 1.0 with
// cores=1 are the expected, honest result. On >= 4 cores the MatVec
// speedup is the ISSUE's >= 2x acceptance gauge.
//
// -scaling additionally runs the kernel suite pinned at each listed
// GOMAXPROCS value (workers = GOMAXPROCS), producing per-core scaling
// curves in the report's "scaling" section. Each point's speedup is
// relative to the same kernel's GOMAXPROCS=1 point, so the curve reads
// directly as parallel efficiency. Points above runtime.NumCPU are
// measured like any other and simply show the flat truth.
//
// Besides the serial-vs-parallel rows, the report carries
// tracer-overhead rows (trace-off-*, trace-on-*): each times a kernel
// with no tracer in the serial column and with a disabled (trace-off)
// or enabled (trace-on) tracer in the parallel column, so the
// "speedup" is the inverse overhead factor. The trace-off rows are the
// instrumentation's no-op guarantee, budgeted at <= 2%.
//
// -compare gates a fresh run against a previous report: any kernel
// whose serial or parallel time exceeds baseline x tolerance fails
// (exit 1), as does a kernel or scaling point missing from the new
// report, or a scaling point whose speedup dropped below baseline ÷
// tolerance. Baselines from a different environment (cores or
// gomaxprocs mismatch) are refused outright — cross-machine timing
// ratios are meaningless — unless -force acknowledges the mismatch.
// -max-trace-overhead additionally bounds the trace-off rows'
// traced/untraced ratio in the CURRENT run (machine-independent, since
// both columns come from the same process).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	spectral "repro"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/melo"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Report is the top-level BENCH_parallel.json document.
type Report struct {
	// Cores is runtime.NumCPU on the measuring machine; speedups are
	// only meaningful relative to it.
	Cores int `json:"cores"`
	// Workers is the parallel worker count the "parallel" timings used.
	Workers int `json:"workers"`
	// GoMaxProcs is the scheduler's thread bound at measurement time.
	GoMaxProcs int `json:"gomaxprocs"`
	// N is the module count of the synthesized netlist for MatVec.
	N int `json:"n"`
	// Kernels holds one entry per measured kernel.
	Kernels []Kernel `json:"kernels"`
	// Scaling holds the per-GOMAXPROCS scaling curves (-scaling flag).
	Scaling []ScalingKernel `json:"scaling,omitempty"`
}

// ScalingKernel is one kernel's per-core scaling curve.
type ScalingKernel struct {
	Name   string         `json:"name"`
	Points []ScalingPoint `json:"points"`
}

// ScalingPoint is one (GOMAXPROCS, workers) timing of a kernel.
// Speedup is relative to the same kernel's GOMAXPROCS=1 point.
type ScalingPoint struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	Speedup    float64 `json:"speedup"`
}

// Kernel is one serial-vs-parallel measurement. Tracer-overhead rows
// reuse the columns (serial = untraced, parallel = traced) and say so
// in Note.
type Kernel struct {
	Name            string  `json:"name"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Reps            int     `json:"reps"`
	Note            string  `json:"note,omitempty"`
}

func main() {
	var (
		n          = flag.Int("n", 20000, "modules in the synthesized MatVec netlist")
		workers    = flag.Int("workers", 0, "parallel worker count (0 = GOMAXPROCS)")
		reps       = flag.Int("reps", 5, "repetitions per timing (best-of)")
		out        = flag.String("out", "BENCH_parallel.json", "output path")
		traceOut   = flag.String("trace", "", "append finished spans as JSON lines to this file")
		comparePth = flag.String("compare", "", "baseline report to gate against (empty = no gate)")
		tolerance  = flag.String("tolerance", "1.5x", "max allowed slowdown vs baseline per kernel column")
		maxTraceOv = flag.Float64("max-trace-overhead", 0, "max traced/untraced ratio for trace-off rows (0 = no gate)")
		scalingLvl = flag.String("scaling", "1,2,4", "comma-separated GOMAXPROCS values for the scaling curves (empty disables)")
		force      = flag.Bool("force", false, "compare against a baseline from a mismatched environment (cores/gomaxprocs)")
	)
	flag.Parse()
	w := parallel.Workers(*workers)

	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// Installed globally so the ctx-free kernels report through the
		// fallback path; removed before the overhead rows run their
		// untraced baselines.
		trace.SetGlobal(trace.New(trace.NewJSONWriter(f)))
	}

	rep := Report{Cores: runtime.NumCPU(), Workers: w, GoMaxProcs: runtime.GOMAXPROCS(0), N: *n}

	big := buildGraph(*n)
	q := big.Laplacian()
	x := make([]float64, big.N())
	for i := range x {
		x[i] = float64(i%13) * 0.3
	}
	y := make([]float64, big.N())
	matvecPar := func() { q.MatVecPar(x, y, w) }
	rep.Kernels = append(rep.Kernels, measure("matvec", *reps,
		func() { q.MatVec(x, y) },
		matvecPar,
	))

	mid := buildGraph(4000)
	qm := mid.Laplacian()
	lanczosPar := func() { mustSolve(qm, w) }
	rep.Kernels = append(rep.Kernels, measure("lanczos", *reps,
		func() { mustSolve(qm, 1) },
		lanczosPar,
	))

	small := buildGraph(2000)
	sol, err := resilience.SolveEigen(context.Background(), small.Laplacian(), 9, resilience.EigenPolicy{MinD: 9})
	if err != nil {
		fatal(err)
	}
	dec := sol.Dec
	meloPar := func() { mustOrder(small, dec, w) }
	rep.Kernels = append(rep.Kernels, measure("melo-order", *reps,
		func() { mustOrder(small, dec, 1) },
		meloPar,
	))

	// Multilevel-vs-flat rows: the serial column times the flat MELO
	// pipeline end to end, the parallel column the multilevel V-cycle on
	// the same netlist, so "speedup" is the algorithmic win of
	// coarsen→solve→uncoarsen over the O(d·n²) flat path.
	mlNote := "serial column = flat MELO, parallel column = MultilevelMELO; speedup = algorithmic win"
	for _, mn := range []int{1000, 10000} {
		hn := buildNetlist(mn)
		flat := func() { mustPartition(hn, spectral.MELO, w) }
		ml := func() { mustPartition(hn, spectral.MultilevelMELO, w) }
		mlReps := *reps
		if mn >= 10000 && mlReps > 2 {
			mlReps = 2 // the flat column alone is seconds per rep
		}
		k := measure(fmt.Sprintf("ml-vs-flat-n%d", mn), mlReps, flat, ml)
		k.Note = mlNote
		rep.Kernels = append(rep.Kernels, k)
	}
	// Tracer-overhead rows: same kernel, untraced vs traced, in one
	// process. trace-off rows must stay within the <= 2% no-op budget.
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"matvec", matvecPar},
		{"lanczos", lanczosPar},
		{"melo", meloPar},
	} {
		rep.Kernels = append(rep.Kernels, measureOverhead(k.name, *reps, k.fn)...)
	}

	// Per-core scaling curves: pin GOMAXPROCS to each requested level and
	// run the kernel with workers = GOMAXPROCS, so the curve measures
	// real scheduler-level parallelism, not just goroutine fan-out over
	// however many threads happen to exist.
	if levels, err := parseScalingLevels(*scalingLvl); err != nil {
		fatal(err)
	} else if len(levels) > 0 {
		kernels := []struct {
			name string
			fn   func(workers int)
		}{
			{"matvec", func(wk int) { q.MatVecPar(x, y, wk) }},
			{"lanczos", func(wk int) { mustSolve(qm, wk) }},
			{"melo-order", func(wk int) { mustOrder(small, dec, wk) }},
		}
		prev := runtime.GOMAXPROCS(0)
		for _, k := range kernels {
			sk := ScalingKernel{Name: k.name}
			for _, gmp := range levels {
				runtime.GOMAXPROCS(gmp)
				fn, wk := k.fn, gmp
				secs := bestOf(*reps, func() { fn(wk) })
				sk.Points = append(sk.Points, ScalingPoint{
					GoMaxProcs: gmp, Workers: gmp, Seconds: secs,
				})
			}
			// Speedups are relative to the GOMAXPROCS=1 point (the first
			// level if 1 was not requested).
			base := sk.Points[0].Seconds
			for _, p := range sk.Points {
				if p.GoMaxProcs == 1 {
					base = p.Seconds
					break
				}
			}
			for i := range sk.Points {
				sk.Points[i].Speedup = base / sk.Points[i].Seconds
			}
			runtime.GOMAXPROCS(prev)
			rep.Scaling = append(rep.Scaling, sk)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (cores=%d workers=%d)\n", *out, rep.Cores, rep.Workers)
	for _, k := range rep.Kernels {
		fmt.Printf("  %-18s serial %8.3fms  parallel %8.3fms  speedup %.2fx\n",
			k.Name, k.SerialSeconds*1e3, k.ParallelSeconds*1e3, k.Speedup)
	}
	for _, sk := range rep.Scaling {
		fmt.Printf("  scaling %-10s", sk.Name)
		for _, p := range sk.Points {
			fmt.Printf("  p=%d %.3fms (%.2fx)", p.GoMaxProcs, p.Seconds*1e3, p.Speedup)
		}
		fmt.Println()
	}

	if *comparePth != "" || *maxTraceOv > 0 {
		if err := gate(rep, *comparePth, *tolerance, *maxTraceOv, *force); err != nil {
			fatal(err)
		}
		fmt.Println("bench gate passed")
	}
}

// measure times serial and parallel variants, best-of-reps, after one
// untimed warmup each.
func measure(name string, reps int, serial, par func()) Kernel {
	s := bestOf(reps, serial)
	p := bestOf(reps, par)
	return Kernel{Name: name, SerialSeconds: s, ParallelSeconds: p, Speedup: s / p, Reps: reps}
}

// measureOverhead times fn three ways — no tracer, disabled tracer,
// enabled tracer (ring sink) — and reports two rows reusing the
// serial/parallel columns as untraced/traced. The prior global tracer
// is restored afterwards so -trace capture resumes.
func measureOverhead(name string, reps int, fn func()) []Kernel {
	prev := trace.Global()
	defer trace.SetGlobal(prev)

	trace.SetGlobal(nil)
	base := bestOf(reps, fn)

	off := trace.New()
	off.SetEnabled(false)
	trace.SetGlobal(off)
	offT := bestOf(reps, fn)

	on := trace.New(trace.NewRing(4096))
	trace.SetGlobal(on)
	onT := bestOf(reps, fn)

	note := "serial column = untraced, parallel column = traced; speedup = inverse overhead"
	return []Kernel{
		{Name: "trace-off-" + name, SerialSeconds: base, ParallelSeconds: offT, Speedup: base / offT, Reps: reps, Note: note},
		{Name: "trace-on-" + name, SerialSeconds: base, ParallelSeconds: onT, Speedup: base / onT, Reps: reps, Note: note},
	}
}

func bestOf(reps int, fn func()) float64 {
	fn() // warmup
	b := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < b {
			b = d
		}
	}
	return b.Seconds()
}

func buildNetlist(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	b.AddModules(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddNet(fmt.Sprintf("c%d", i), i, i+1); err != nil {
			fatal(err)
		}
	}
	// Deterministic pseudo-random extra nets without math/rand: a
	// multiplicative congruence spreads the endpoints well enough for a
	// timing instance.
	state := uint64(12345)
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(bound))
	}
	for e := 0; e < 5*n/2; e++ {
		u, v, z := next(n), next(n), next(n)
		if u == v || v == z || u == z {
			continue
		}
		if err := b.AddNet(fmt.Sprintf("r%d", e), u, v, z); err != nil {
			fatal(err)
		}
	}
	return b.Build()
}

func buildGraph(n int) *graph.Graph {
	g, err := graph.FromHypergraph(buildNetlist(n), graph.PartitioningSpecific, 0)
	if err != nil {
		fatal(err)
	}
	return g
}

func mustPartition(h *hypergraph.Hypergraph, m spectral.Method, workers int) {
	if _, err := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: 2, Method: m, Parallelism: workers}); err != nil {
		fatal(err)
	}
}

func mustSolve(q interface {
	Dim() int
	MatVec(x, y []float64)
}, workers int) {
	if _, err := eigen.Lanczos(q, 8, &eigen.LanczosOptions{Workers: workers}); err != nil {
		fatal(err)
	}
}

func mustOrder(g *graph.Graph, dec *eigen.Decomposition, workers int) {
	opts := melo.NewOptions()
	opts.D = 8
	opts.Workers = workers
	if _, err := melo.Order(g, dec, opts); err != nil {
		fatal(err)
	}
}

// parseScalingLevels parses the -scaling CSV ("1,2,4") into GOMAXPROCS
// values. An empty string disables the scaling suite.
func parseScalingLevels(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var levels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-scaling: %q is not a positive GOMAXPROCS value", part)
		}
		levels = append(levels, v)
	}
	return levels, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpar:", err)
	os.Exit(1)
}
