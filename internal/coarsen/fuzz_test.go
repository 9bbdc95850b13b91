package coarsen

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partest"
	"repro/internal/partition"
)

// FuzzCoarsenUncoarsen drives Match/Contract/Project over generated
// netlists and asserts the contraction invariants the V-cycle relies
// on: every fine module lands in exactly one coarse module, total area
// is preserved, kept+dropped nets account for every fine net, and any
// coarse partitioning's net cut equals its fine projection's net cut.
func FuzzCoarsenUncoarsen(f *testing.F) {
	f.Add(uint8(8), uint8(6), uint8(3), int64(1), uint8(2), uint8(0))
	f.Add(uint8(40), uint8(60), uint8(5), int64(7), uint8(3), uint8(1))
	f.Add(uint8(120), uint8(200), uint8(8), int64(42), uint8(4), uint8(2))
	f.Add(uint8(2), uint8(0), uint8(2), int64(0), uint8(2), uint8(0))
	f.Add(uint8(65), uint8(33), uint8(12), int64(-9), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, n, extra, maxPin uint8, seed int64, kSel, areaSel uint8) {
		if n < 2 {
			n = 2
		}
		h := partest.RandomNetlist(int(n), int(extra), int(maxPin), seed)
		var areas []float64
		if areaSel%2 == 1 {
			areas = make([]float64, h.NumModules())
			for i := range areas {
				areas[i] = 0.25 + float64((int(areaSel)+i)%9)
			}
			if err := h.SetAreas(areas); err != nil {
				t.Fatal(err)
			}
		}
		g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
		if err != nil {
			t.Fatal(err)
		}
		var maxArea float64
		if areaSel >= 128 {
			maxArea = h.TotalArea() / 4
		}
		lvl, err := Contract(h, Match(g, areas, MatchOptions{MaxArea: maxArea}))
		if err != nil {
			t.Fatal(err)
		}

		// Vertex conservation: the projection map is a surjection onto
		// the coarse modules with multiplicities 1 or 2 summing to n.
		counts := make([]int, lvl.Coarse.NumModules())
		for i, c := range lvl.Map {
			if c < 0 || c >= len(counts) {
				t.Fatalf("module %d maps to out-of-range coarse module %d", i, c)
			}
			counts[c]++
		}
		sum := 0
		for c, ct := range counts {
			if ct < 1 || ct > 2 {
				t.Fatalf("coarse module %d has multiplicity %d", c, ct)
			}
			sum += ct
		}
		if sum != h.NumModules() {
			t.Fatalf("multiplicities sum to %d, want %d", sum, h.NumModules())
		}

		// Area conservation.
		if df := lvl.Coarse.TotalArea() - h.TotalArea(); df > 1e-9*(1+h.TotalArea()) || df < -1e-9*(1+h.TotalArea()) {
			t.Fatalf("total area drifted by %v", df)
		}
		if lvl.Coarse.NumNets()+lvl.DroppedNets != h.NumNets() {
			t.Fatalf("nets: %d kept + %d dropped != %d fine", lvl.Coarse.NumNets(), lvl.DroppedNets, h.NumNets())
		}

		// Cut preservation under projection, for a pseudo-random k-way
		// coarse partitioning.
		k := 2 + int(kSel)%3
		if k > lvl.Coarse.NumModules() {
			k = lvl.Coarse.NumModules()
		}
		if k >= 2 {
			cp := partest.RandomPartition(lvl.Coarse.NumModules(), k, seed^int64(kSel))
			fp, err := lvl.Project(cp, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cc, fc := partition.NetCut(lvl.Coarse, cp), partition.NetCut(h, fp); cc != fc {
				t.Fatalf("coarse cut %d != projected fine cut %d", cc, fc)
			}
		}
	})
}
