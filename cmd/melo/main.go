// Command melo partitions a netlist with any of the repository's
// algorithms and reports the standard metrics.
//
// Usage:
//
//	melo -in circuit.net -k 4                    # MELO, 4-way
//	melo -in circuit.net -k 2 -method sb         # spectral bipartitioning
//	melo -bench prim1 -k 2 -refine               # built-in benchmark + FM
//	netgen -name prim2 | melo -k 10 -method rsb  # from stdin
//
// The output lists one `cluster <name> <id>` line per module followed by
// the cut metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	spectral "repro"
)

// exitDeadline is the exit code for a run aborted by -timeout, distinct
// from ordinary failures (1) and usage errors (2).
const exitDeadline = 3

func main() {
	var (
		in          = flag.String("in", "", "netlist file; default stdin")
		format      = flag.String("format", "text", "input format: text|hmetis")
		benchN      = flag.String("bench", "", "use a built-in benchmark instead of -in")
		scale       = flag.Float64("scale", 1.0, "benchmark scale when -bench is used")
		seed        = flag.Int64("seed", 0, "benchmark instance seed when -bench is used (0 = canonical)")
		k           = flag.Int("k", 2, "number of clusters")
		method      = flag.String("method", "melo", strings.Join(spectral.MethodNames(), "|"))
		listMethods = flag.Bool("methods", false, "list the partitioning methods and exit")
		d           = flag.Int("d", 0, "eigenvectors for MELO orderings (0 = default 10, clamped to the netlist)")
		scheme      = flag.Int("scheme", 0, "MELO weighting scheme (0-3)")
		minFrac     = flag.Float64("minfrac", 0.45, "bipartition balance bound")
		refine      = flag.Bool("refine", false, "FM post-refinement (k=2 only)")
		coarsenTo   = flag.Int("coarsen-threshold", 0, "mlmelo: stop coarsening at this many modules (0 = default 128)")
		maxLevels   = flag.Int("max-levels", 0, "mlmelo: cap on coarsening levels (0 = default 32)")
		refPasses   = flag.Int("refine-passes", 0, "mlmelo: FM passes per uncoarsening level (0 = default 4, negative disables)")
		par         = flag.Int("parallelism", 0, "worker goroutines per numerical kernel (0 = GOMAXPROCS; results identical at every setting)")
		quiet       = flag.Bool("quiet", false, "print metrics only, not the assignment")
		timeout     = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	)
	flag.Parse()

	if *listMethods {
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

	h, err := loadInput(*in, *benchN, *scale, *seed, *format)
	if err != nil {
		fatal(err)
	}
	m, err := spectral.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	p, err := spectral.PartitionCtx(ctx, h, spectral.Options{
		K: *k, Method: m, D: *d, Scheme: *scheme, MinFrac: *minFrac, Refine: *refine,
		CoarsenThreshold: *coarsenTo, MaxLevels: *maxLevels, RefinePasses: *refPasses,
		Parallelism: *par,
	})
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "melo: timed out after %v; no partitioning was produced (partial pipeline state is discarded — rerun with a larger -timeout or a smaller instance)\n", *timeout)
		os.Exit(exitDeadline)
	}
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		for i, c := range p.Assign {
			fmt.Printf("cluster %s %d\n", h.Names[i], c)
		}
	}
	fmt.Printf("modules=%d nets=%d pins=%d k=%d method=%v\n",
		h.NumModules(), h.NumNets(), h.NumPins(), *k, m)
	fmt.Printf("netcut=%d scaledcost=%.6g sizes=%v\n",
		spectral.NetCut(h, p), spectral.ScaledCost(h, p), p.Sizes())
}

func loadInput(in, benchName string, scale float64, seed int64, format string) (*spectral.Netlist, error) {
	if benchName != "" {
		return spectral.GenerateBenchmarkSeeded(benchName, scale, seed)
	}
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	switch format {
	case "hmetis":
		return spectral.LoadHMetis(r)
	case "text", "":
		_, h, err := spectral.LoadNetlist(r)
		return h, err
	default:
		return nil, fmt.Errorf("unknown format %q (want text|hmetis)", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "melo:", err)
	os.Exit(1)
}
