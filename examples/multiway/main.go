// Multiway: the paper's Table 4 experiment in miniature — compare MELO
// against the RSB, KP and SFC baselines for several cluster counts on one
// circuit, reporting Scaled Cost (lower is better).
//
//	go run ./examples/multiway
package main

import (
	"context"
	"fmt"
	"log"

	spectral "repro"
)

func main() {
	h, err := spectral.GenerateBenchmark("test05", 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit test05 (scaled): %d modules, %d nets\n\n",
		h.NumModules(), h.NumNets())

	methods := []spectral.Method{spectral.RSB, spectral.KP, spectral.SFC, spectral.MELO}
	fmt.Printf("%-4s", "k")
	for _, m := range methods {
		fmt.Printf("%-12s", m)
	}
	fmt.Println()
	for _, k := range []int{2, 4, 8} {
		fmt.Printf("%-4d", k)
		for _, m := range methods {
			p, err := spectral.PartitionCtx(context.Background(), h, spectral.Options{K: k, Method: m})
			if err != nil {
				log.Fatalf("%v k=%d: %v", m, k, err)
			}
			fmt.Printf("%-12.4g", spectral.ScaledCost(h, p)*1e4)
		}
		fmt.Println()
	}
	fmt.Println("\nScaled Cost x 1e4; MELO uses a single d=10 ordering here — the full")
	fmt.Println("Table 4 protocol (best of many orderings) lives in cmd/experiments.")
}
