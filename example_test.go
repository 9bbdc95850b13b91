package spectral_test

// Runnable godoc examples for the public API. Examples without Output
// comments are compiled (not executed) by go test; the deterministic ones
// verify their output.

import (
	"context"
	"fmt"
	"log"
	"strings"

	spectral "repro"
)

// ExamplePartitionCtx shows the canonical pipeline: build a netlist,
// partition it with MELO, inspect the metrics.
func ExamplePartitionCtx() {
	// A tiny netlist: two triangles bridged by one net.
	src := `net t1 a b
net t2 b c
net t3 a c
net t4 d e
net t5 e f
net t6 d f
net bridge c d
`
	_, h, err := spectral.LoadNetlist(strings.NewReader(src))
	if err != nil {
		log.Fatal(err)
	}
	p, err := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: 2, Method: spectral.MELO, D: 3, MinFrac: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cut nets:", spectral.NetCut(h, p))
	fmt.Println("sizes:", p.Sizes())
	// Output:
	// cut nets: 1
	// sizes: [3 3]
}

// ExampleOrderModulesWithSpectrum exposes the raw MELO ordering for
// custom splits; a nil spectrum computes the decomposition on the spot.
func ExampleOrderModulesWithSpectrum() {
	src := "net a m0 m1\nnet b m1 m2\nnet c m2 m3\n"
	_, h, err := spectral.LoadNetlist(strings.NewReader(src))
	if err != nil {
		log.Fatal(err)
	}
	order, err := spectral.OrderModulesWithSpectrum(context.Background(), h, nil, 2, 0)
	if err != nil {
		log.Fatal(err)
	}
	// A path netlist orders monotonically end to end.
	fmt.Println(len(order), "modules ordered")
	// Output:
	// 4 modules ordered
}

// ExampleGenerateBenchmark synthesizes one of the paper's Table 1
// circuits.
func ExampleGenerateBenchmark() {
	h, err := spectral.GenerateBenchmark("prim1", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prim1: %d modules, %d nets, %d pins\n",
		h.NumModules(), h.NumNets(), h.NumPins())
	// Output:
	// prim1: 833 modules, 902 nets, 2908 pins
}

// ExampleCluster builds a hierarchy and extracts partitionings at several
// granularities.
func ExampleCluster() {
	h, err := spectral.GenerateBenchmark("bm1", 0.1)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := spectral.Cluster(h, 16)
	if err != nil {
		log.Fatal(err)
	}
	p, err := tree.Flatten(h, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clusters:", p.K)
	// Output:
	// clusters: 4
}
