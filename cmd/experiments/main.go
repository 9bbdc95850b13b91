// Command experiments regenerates the paper's evaluation tables and
// figures on the synthesized benchmark suite.
//
// Usage:
//
//	experiments -all                 # every table and figure, full scale
//	experiments -table 4 -scale 0.3  # one table at reduced scale
//	experiments -figure 1
//	experiments -table 5 -benchmarks prim1,prim2
//
// At -scale 1 the full suite takes minutes (the industry2 circuit has
// 12637 modules and every algorithm runs on it); smaller scales preserve
// the qualitative comparisons and run in seconds.
//
// -trace out.jsonl appends every finished pipeline span as a JSON line;
// -trace-report prints the aggregate summary (per-span p50/p95/max,
// counter totals) to stderr when the run ends. Either flag enables the
// tracer; without them it stays off and costs nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	spectral "repro"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// exitDeadline is the exit code for a run aborted by -timeout, distinct
// from ordinary failures (1) and usage errors (2).
const exitDeadline = 3

func main() {
	var (
		tableN   = flag.Int("table", 0, "table number to regenerate (1-5)")
		figureN  = flag.Int("figure", 0, "figure number to regenerate (1-2)")
		ext      = flag.Bool("ext", false, "regenerate the extensions comparison table")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		scale    = flag.Float64("scale", 1.0, "benchmark scale factor (0,1]")
		d        = flag.Int("d", 10, "MELO eigenvector count")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default all)")
		par      = flag.Int("parallelism", 0, "worker goroutines per numerical kernel (0 = GOMAXPROCS; results identical at every setting)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		traceOut = flag.String("trace", "", "append finished spans as JSON lines to this file")
		traceRep = flag.Bool("trace-report", false, "print the trace summary to stderr at exit")
		listM    = flag.Bool("methods", false, "list the partitioning methods the facade accepts and exit")
	)
	flag.Parse()
	parallel.SetLimit(*par)

	if *listM {
		for _, name := range spectral.MethodNames() {
			m, _ := spectral.ParseMethod(name)
			fmt.Printf("%-10s %s\n", name, spectral.MethodSummary(m))
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *traceOut != "" || *traceRep {
		var sinks []trace.Sink
		if *traceOut != "" {
			f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: open trace file: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			sinks = append(sinks, trace.NewJSONWriter(f))
		}
		tracer := trace.New(sinks...)
		// The Lab threads ctx into every facade call, but the parallel
		// kernels report through the process-global fallback.
		trace.SetGlobal(tracer)
		ctx = trace.WithTracer(ctx, tracer)
		if *traceRep {
			defer tracer.WriteReport(os.Stderr)
		}
	}

	cfg := experiments.Config{Ctx: ctx, Out: os.Stdout, Scale: *scale, D: *d}
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	lab := experiments.NewLab(cfg)

	tables := map[int]func(*experiments.Lab) error{
		1: experiments.Table1,
		2: experiments.Table2,
		3: experiments.Table3,
		4: experiments.Table4,
		5: experiments.Table5,
	}
	figures := map[int]func(*experiments.Lab) error{
		1: experiments.Figure1,
		2: experiments.Figure2,
	}

	run := func(name string, f func(*experiments.Lab) error) {
		if err := f(lab); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "experiments: timed out after %v during %s; tables and figures printed before this point are complete, %s itself is partial or missing\n", *timeout, name, name)
				os.Exit(exitDeadline)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	switch {
	case *all:
		for i := 1; i <= 5; i++ {
			run(fmt.Sprintf("table %d", i), tables[i])
		}
		for i := 1; i <= 2; i++ {
			run(fmt.Sprintf("figure %d", i), figures[i])
		}
		run("extensions table", experiments.TableExtensions)
	case *ext:
		run("extensions table", experiments.TableExtensions)
	case *tableN != 0:
		f, ok := tables[*tableN]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: no table %d (want 1-5)\n", *tableN)
			os.Exit(2)
		}
		run(fmt.Sprintf("table %d", *tableN), f)
	case *figureN != 0:
		f, ok := figures[*figureN]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: no figure %d (want 1-2)\n", *figureN)
			os.Exit(2)
		}
		run(fmt.Sprintf("figure %d", *figureN), f)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
