// Weighted: the paper's §3 weighted-vertex extension in action — modules
// carry areas (cells vs macros), and balance is enforced on AREA rather
// than module count: L_h ≤ w(S_h) ≤ W_h. Compares a count-balanced split
// with an area-balanced split of the same MELO ordering, plus area-aware
// FM refinement.
//
//	go run ./examples/weighted
package main

import (
	"context"
	"fmt"
	"log"

	spectral "repro"
	"repro/internal/bench"
	"repro/internal/dprp"
	"repro/internal/fm"
	"repro/internal/partition"
)

func main() {
	h, err := spectral.GenerateBenchmark("test03", 0.25)
	if err != nil {
		log.Fatal(err)
	}
	// Attach skewed cell areas (most near 1, a tail of macros).
	if err := bench.AttachAreas(h, 7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit test03 (scaled): %d modules, %d nets, total area %.1f\n\n",
		h.NumModules(), h.NumNets(), h.TotalArea())

	order, err := spectral.OrderModulesWithSpectrum(context.Background(), h, nil, 10, 0)
	if err != nil {
		log.Fatal(err)
	}

	bySize, err := dprp.BestBalancedSplit(h, order, 0.45)
	if err != nil {
		log.Fatal(err)
	}
	byArea, err := dprp.BestBalancedSplitAreas(h, order, 0.45)
	if err != nil {
		log.Fatal(err)
	}

	show := func(label string, p *partition.Partition, cut float64) {
		areas := partition.ClusterAreas(h, p)
		fmt.Printf("%-28s cut %-5.0f sizes %-12v areas [%.1f %.1f]\n",
			label, cut, p.Sizes(), areas[0], areas[1])
	}
	show("count-balanced split", bySize.Partition, bySize.Cut)
	show("area-balanced split", byArea.Partition, byArea.Cut)

	// Area-aware FM refinement of the area-balanced split.
	res, err := fm.Refine(h, byArea.Partition, fm.Options{MinFrac: 0.45})
	if err != nil {
		log.Fatal(err)
	}
	show("  + area-aware FM", res.Partition, float64(res.Cut))

	fmt.Println("\nthe count-balanced split can leave one side holding most of the die")
	fmt.Println("area; the area-balanced split and area-aware FM keep both sides")
	fmt.Println("within the 45% area bound — the constraint real placers need.")
}
