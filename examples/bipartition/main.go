// Bipartition: the paper's Table 5 experiment in miniature — balanced
// (45-55%) two-way partitioning with SB, the analytical-placement
// baseline, and MELO, plus the effect of FM post-refinement.
//
//	go run ./examples/bipartition
package main

import (
	"context"
	"fmt"
	"log"

	spectral "repro"
)

func main() {
	h, err := spectral.GenerateBenchmark("struct", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit struct (scaled): %d modules, %d nets\n\n",
		h.NumModules(), h.NumNets())

	type variant struct {
		label string
		opts  spectral.Options
	}
	variants := []variant{
		{"SB (1 eigenvector)", spectral.Options{K: 2, Method: spectral.SB}},
		{"analytical placement", spectral.Options{K: 2, Method: spectral.Placement}},
		{"MELO d=10", spectral.Options{K: 2, Method: spectral.MELO, D: 10}},
		{"MELO d=10 + FM", spectral.Options{K: 2, Method: spectral.MELO, D: 10, Refine: true}},
	}
	fmt.Printf("%-22s %-8s %-10s %s\n", "method", "cut", "ratio cut", "sizes")
	for _, v := range variants {
		p, err := spectral.PartitionCtx(context.Background(), h, v.opts)
		if err != nil {
			log.Fatalf("%s: %v", v.label, err)
		}
		fmt.Printf("%-22s %-8d %-10.3g %v\n",
			v.label, spectral.NetCut(h, p), spectral.RatioCut(h, p)*1e3, p.Sizes())
	}
	fmt.Println("\nratio cut x 1e3; every split keeps each side >= 45% of the modules.")
}
