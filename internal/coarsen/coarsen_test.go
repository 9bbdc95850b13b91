package coarsen

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/partest"
	"repro/internal/partition"
)

func TestMatchIsInvolution(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		h := partest.RandomNetlist(40, 60, 5, seed)
		g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
		if err != nil {
			t.Fatal(err)
		}
		m := Match(g, nil, MatchOptions{})
		for i, j := range m {
			if j < 0 || j >= g.N() || m[j] != i {
				t.Fatalf("seed %d: match not an involution at %d: m[%d]=%d, m[%d]=%d", seed, i, i, j, j, m[j])
			}
		}
	}
}

func TestMatchWorkerInvariant(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		h := partest.RandomNetlist(60, 90, 6, seed)
		g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
		if err != nil {
			t.Fatal(err)
		}
		base := Match(g, nil, MatchOptions{Workers: 1})
		for _, w := range []int{2, 3, 4, 7, 8} {
			got := Match(g, nil, MatchOptions{Workers: w})
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("seed %d: matching differs at workers=%d", seed, w)
			}
		}
	}
}

func TestMatchRespectsAreaCap(t *testing.T) {
	h := partest.RandomNetlist(30, 40, 4, 3)
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
	if err != nil {
		t.Fatal(err)
	}
	areas := make([]float64, g.N())
	for i := range areas {
		areas[i] = 1 + float64(i%5)
	}
	cap := 4.0
	m := Match(g, areas, MatchOptions{MaxArea: cap})
	matched := 0
	for i, j := range m {
		if j == i {
			continue
		}
		matched++
		if areas[i]+areas[j] > cap {
			t.Fatalf("pair (%d,%d) has combined area %v > cap %v", i, j, areas[i]+areas[j], cap)
		}
	}
	if matched == 0 {
		t.Fatal("area cap eliminated every match; expected some pairs under the cap")
	}
}

func TestContractPreservesCountAndArea(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		h := partest.RandomNetlist(50, 70, 5, seed)
		areas := make([]float64, h.NumModules())
		for i := range areas {
			areas[i] = 0.5 + float64((seed+int64(i))%7)
		}
		if err := h.SetAreas(areas); err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
		if err != nil {
			t.Fatal(err)
		}
		lvl, err := Contract(h, Match(g, areas, MatchOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if got := lvl.Coarse.NumModules(); got != h.NumModules()-lvl.Merged {
			t.Fatalf("coarse has %d modules, want %d - %d", got, h.NumModules(), lvl.Merged)
		}
		counts := make([]int, lvl.Coarse.NumModules())
		for _, c := range lvl.Map {
			counts[c]++
		}
		total := 0
		for c, ct := range counts {
			if ct < 1 || ct > 2 {
				t.Fatalf("coarse module %d has multiplicity %d, want 1 or 2", c, ct)
			}
			total += ct
		}
		if total != h.NumModules() {
			t.Fatalf("multiplicities sum to %d, want %d", total, h.NumModules())
		}
		if df := math.Abs(lvl.Coarse.TotalArea() - h.TotalArea()); df > 1e-9*(1+h.TotalArea()) {
			t.Fatalf("total area drifted by %v", df)
		}
		if lvl.Coarse.NumNets()+lvl.DroppedNets != h.NumNets() {
			t.Fatalf("nets: %d kept + %d dropped != %d fine", lvl.Coarse.NumNets(), lvl.DroppedNets, h.NumNets())
		}
	}
}

func TestProjectPreservesCut(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		h := partest.RandomNetlist(50, 80, 6, seed)
		g, err := graph.FromHypergraph(h, graph.PartitioningSpecific)
		if err != nil {
			t.Fatal(err)
		}
		lvl, err := Contract(h, Match(g, nil, MatchOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 4; k++ {
			cp := partest.RandomPartition(lvl.Coarse.NumModules(), k, seed*10+int64(k))
			fp, err := lvl.Project(cp, 0)
			if err != nil {
				t.Fatal(err)
			}
			coarseCut := partition.NetCut(lvl.Coarse, cp)
			fineCut := partition.NetCut(h, fp)
			if coarseCut != fineCut {
				t.Fatalf("seed %d k %d: coarse cut %d != projected fine cut %d", seed, k, coarseCut, fineCut)
			}
			serial, err := lvl.Project(cp, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Assign, fp.Assign) {
				t.Fatalf("seed %d k %d: projection differs between worker counts", seed, k)
			}
		}
	}
}

func TestContractRejectsBadMatching(t *testing.T) {
	h := partest.RandomNetlist(6, 4, 3, 1)
	if _, err := Contract(h, []int{0, 1, 2}); err == nil {
		t.Fatal("short matching accepted")
	}
	if _, err := Contract(h, []int{1, 2, 0, 3, 4, 5}); err == nil {
		t.Fatal("non-involution accepted")
	}
	if _, err := Contract(h, []int{9, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("out-of-range matching accepted")
	}
}
