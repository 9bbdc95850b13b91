// Command inspect reports a netlist's structure and spectral profile:
// size statistics, connectivity, the smallest Laplacian eigenvalues of
// its clique-model graph, and the Donath–Hoffman lower bounds for
// balanced 2-, 4- and 8-way partitionings.
//
// Usage:
//
//	inspect -bench prim1
//	inspect -in circuit.net -model frankle -d 12
//	netgen -name struct -scale 0.2 | inspect
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	spectral "repro"
	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/resilience"
)

func main() {
	var (
		in          = flag.String("in", "", "netlist file (default stdin)")
		format      = flag.String("format", "text", "input format: text|hmetis")
		benchN      = flag.String("bench", "", "use a built-in benchmark instead of -in")
		scale       = flag.Float64("scale", 1.0, "benchmark scale")
		model       = flag.String("model", "partitioning-specific", "clique model: standard|partitioning-specific|frankle")
		d           = flag.Int("d", 10, "eigenvalues to report")
		listMethods = flag.Bool("methods", false, "list the partitioning methods the facade accepts and exit")
	)
	flag.Parse()

	if *listMethods {
		for _, name := range spectral.MethodNames() {
			m, _ := spectral.ParseMethod(name)
			fmt.Printf("%-10s %s\n", name, spectral.MethodSummary(m))
		}
		return
	}

	h, err := load(*in, *benchN, *scale, *format)
	if err != nil {
		fatal(err)
	}
	s := h.Stats()
	fmt.Printf("modules:     %d\n", s.Modules)
	fmt.Printf("nets:        %d\n", s.Nets)
	fmt.Printf("pins:        %d\n", s.Pins)
	fmt.Printf("avg net:     %.3f pins\n", s.AvgNetSize)
	fmt.Printf("max net:     %d pins\n", s.MaxNetSize)
	fmt.Printf("total area:  %.3f (explicit areas: %v)\n", h.TotalArea(), h.HasAreas())
	fmt.Printf("connected:   %v\n", h.IsConnected())
	if comps := h.Components(); len(comps) > 1 {
		fmt.Printf("components:  %d (largest %d modules)\n", len(comps), len(comps[0]))
	}

	var m graph.CliqueModel
	switch *model {
	case "standard":
		m = graph.Standard
	case "partitioning-specific":
		m = graph.PartitioningSpecific
	case "frankle":
		m = graph.Frankle
	default:
		fatal(fmt.Errorf("unknown clique model %q", *model))
	}
	g, err := graph.FromHypergraph(h, m)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nclique model %v: %d edges, total degree %.3f\n", m, g.NumEdges(), g.TotalDegree())

	want := *d + 1
	if want > g.N() {
		want = g.N()
	}
	sol, err := resilience.SolveEigen(context.Background(), g.Laplacian(), want, resilience.EigenPolicy{MinD: want})
	if err != nil {
		fatal(fmt.Errorf("eigensolve: %v", err))
	}
	dec := sol.Dec
	fmt.Printf("smallest Laplacian eigenvalues:\n  ")
	for j, l := range dec.Values {
		if j > 0 && j%6 == 0 {
			fmt.Printf("\n  ")
		}
		fmt.Printf("λ%-2d=%-10.6f ", j+1, l)
	}
	fmt.Println()

	n := h.NumModules()
	fmt.Println("\nDonath-Hoffman lower bounds on f(P_k) = Σ_h E_h (balanced sizes):")
	for _, k := range []int{2, 4, 8} {
		if k > n || k > want {
			continue
		}
		sizes := make([]int, k)
		base, rem := n/k, n%k
		for i := range sizes {
			sizes[i] = base
			if i < rem {
				sizes[i]++
			}
		}
		b, err := bounds.DonathHoffman(g, sizes)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  k=%d: f >= %.4f\n", k, b)
	}
}

func load(in, benchName string, scale float64, format string) (*spectral.Netlist, error) {
	if benchName != "" {
		return spectral.GenerateBenchmark(benchName, scale)
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
	fmt.Fprintln(os.Stderr, "inspect:", err)
	os.Exit(1)
}
