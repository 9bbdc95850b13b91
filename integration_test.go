package spectral

// End-to-end integration tests: every partitioning method must recover a
// planted clustered structure, and all pipeline layers must agree on the
// metrics they report.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func cliqueGraph(h *Netlist) (*graph.Graph, error) {
	return graph.FromHypergraph(h, graph.PartitioningSpecific)
}

func cliqueF(g *graph.Graph, p *Partitioning) float64 {
	return partition.F(g, p)
}

// plantedNetlist builds k dense clusters of `size` modules with exactly
// k−1 bridge nets, as a netlist in the text format (exercising the parser
// as part of the pipeline).
func plantedNetlist(t *testing.T, k, size int, seed int64) *Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	net := 0
	for c := 0; c < k; c++ {
		base := c * size
		for i := 0; i < size-1; i++ {
			fmt.Fprintf(&sb, "net n%d m%d m%d\n", net, base+i, base+i+1)
			net++
		}
		for e := 0; e < 3*size; e++ {
			i, j := rng.Intn(size), rng.Intn(size)
			if i != j {
				fmt.Fprintf(&sb, "net n%d m%d m%d\n", net, base+i, base+j)
				net++
			}
		}
	}
	for c := 0; c+1 < k; c++ {
		fmt.Fprintf(&sb, "net bridge%d m%d m%d\n", c, c*size+rng.Intn(size), (c+1)*size+rng.Intn(size))
	}
	_, h, err := LoadNetlist(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// clusterPurity returns the fraction of planted clusters that land wholly
// inside a single output cluster.
func clusterPurity(p *Partitioning, k, size int) float64 {
	pure := 0
	for c := 0; c < k; c++ {
		first := p.Assign[c*size]
		whole := true
		for i := 1; i < size; i++ {
			if p.Assign[c*size+i] != first {
				whole = false
				break
			}
		}
		if whole {
			pure++
		}
	}
	return float64(pure) / float64(k)
}

func TestIntegrationAllMethodsRecoverPlantedBipartition(t *testing.T) {
	h := plantedNetlist(t, 2, 24, 1)
	for _, m := range []Method{MELO, SB, RSB, KP, SFC, Placement} {
		p, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// One bridge net: every spectral method should find a cut of
		// exactly 1 on this easy instance.
		if cut := NetCut(h, p); cut > 1 {
			t.Errorf("%v: cut %d, want 1 (the bridge)", m, cut)
		}
		if purity := clusterPurity(p, 2, 24); purity < 1 {
			t.Errorf("%v: planted clusters split (purity %.2f)", m, purity)
		}
	}
}

func TestIntegrationMultiwayMethodsRecoverPlanted(t *testing.T) {
	k, size := 4, 16
	h := plantedNetlist(t, k, size, 3)
	flat := func(m Method) func() (*Partitioning, error) {
		return func() (*Partitioning, error) {
			return PartitionCtx(context.Background(), h, Options{K: k, Method: m})
		}
	}
	methods := map[string]func() (*Partitioning, error){
		"melo": flat(MELO),
		"rsb":  flat(RSB),
		"kp":   flat(KP),
		"vkp":  flat(VKP),
		"cluster-flatten": func() (*Partitioning, error) {
			tree, err := Cluster(h, size)
			if err != nil {
				return nil, err
			}
			return tree.Flatten(h, k)
		},
	}
	// Planted reference for agreement measurement.
	planted := make([]int, k*size)
	for c := 0; c < k; c++ {
		for i := 0; i < size; i++ {
			planted[c*size+i] = c
		}
	}
	ref := partition.MustNew(planted, k)

	for name, run := range methods {
		p, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.K != k {
			t.Fatalf("%s: K = %d", name, p.K)
		}
		// The planted structure cuts k−1 bridges; allow modest slack for
		// the weaker heuristics but reject structural failures.
		if cut := NetCut(h, p); cut > 3*(k-1) {
			t.Errorf("%s: cut %d, planted %d", name, cut, k-1)
		}
		// Label-invariant recovery: adjusted Rand index near 1.
		ari, err := partition.AdjustedRandIndex(ref, p)
		if err != nil {
			t.Fatal(err)
		}
		if ari < 0.8 {
			t.Errorf("%s: adjusted Rand index %.3f, want > 0.8", name, ari)
		}
	}
}

func TestIntegrationRefinementChain(t *testing.T) {
	// MELO → FM on k=2, and MELO → pairwise FM on k=4, end to end from
	// parsed text input; each stage must report consistent metrics.
	h := plantedNetlist(t, 4, 12, 5)
	for _, k := range []int{2, 4} {
		plain, err := PartitionCtx(context.Background(), h, Options{K: k, Method: MELO})
		if err != nil {
			t.Fatal(err)
		}
		refined, err := PartitionCtx(context.Background(), h, Options{K: k, Method: MELO, Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if NetCut(h, refined) > NetCut(h, plain) {
			t.Errorf("k=%d: refinement worsened the cut", k)
		}
		for c, s := range refined.Sizes() {
			if s == 0 {
				t.Errorf("k=%d: cluster %d empty after refinement", k, c)
			}
		}
	}
}

func TestIntegrationBoundsBracketHeuristics(t *testing.T) {
	// Donath–Hoffman lower bound <= clique-model F of any heuristic
	// partition with matching sizes.
	h := plantedNetlist(t, 2, 20, 7)
	p, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MELO, MinFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := CutLowerBound(h, p.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	// F on the clique-model graph of the same netlist.
	g, err := cliqueGraph(h)
	if err != nil {
		t.Fatal(err)
	}
	f := cliqueF(g, p)
	if f < bound-1e-9 {
		t.Errorf("heuristic F %v below lower bound %v", f, bound)
	}
}

func TestIntegrationOrderingStability(t *testing.T) {
	// The full pipeline is deterministic: two runs from the same parsed
	// input produce identical orderings and partitions.
	h1 := plantedNetlist(t, 3, 10, 11)
	h2 := plantedNetlist(t, 3, 10, 11)
	o1, err := OrderModulesWithSpectrum(context.Background(), h1, nil, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := OrderModulesWithSpectrum(context.Background(), h2, nil, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("orderings differ across identical runs")
		}
	}
}
