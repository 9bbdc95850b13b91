package spectral

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func smallBenchmark(t *testing.T) *Netlist {
	t.Helper()
	h, err := GenerateBenchmark("prim1", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPartitionAllMethodsBipartition(t *testing.T) {
	h := smallBenchmark(t)
	n := h.NumModules()
	for _, m := range []Method{MELO, SB, RSB, KP, SFC, Placement} {
		p, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if p.K != 2 || p.N() != n {
			t.Fatalf("%v: wrong shape", m)
		}
		for c, s := range p.Sizes() {
			if s == 0 {
				t.Errorf("%v: cluster %d empty", m, c)
			}
		}
		cut := NetCut(h, p)
		if cut < 0 || cut > h.NumNets() {
			t.Errorf("%v: nonsense cut %d", m, cut)
		}
	}
}

func TestPartitionMultiway(t *testing.T) {
	h := smallBenchmark(t)
	for _, m := range []Method{MELO, RSB, KP, SFC, VKP, Barnes, HL} {
		p, err := PartitionCtx(context.Background(), h, Options{K: 4, Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if p.K != 4 {
			t.Fatalf("%v: K = %d", m, p.K)
		}
		for c, s := range p.Sizes() {
			if s == 0 {
				t.Errorf("%v: cluster %d empty", m, c)
			}
		}
		sc := ScaledCost(h, p)
		if sc <= 0 {
			t.Errorf("%v: scaled cost %v", m, sc)
		}
	}
}

func TestBipartitionersRejectMultiway(t *testing.T) {
	h := smallBenchmark(t)
	for _, m := range []Method{SB, Placement} {
		if _, err := PartitionCtx(context.Background(), h, Options{K: 3, Method: m}); err == nil {
			t.Errorf("%v: K=3 accepted", m)
		}
	}
}

func TestRefineImprovesOrMatches(t *testing.T) {
	h := smallBenchmark(t)
	plain, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MELO})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MELO, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if NetCut(h, refined) > NetCut(h, plain) {
		t.Errorf("refined cut %d worse than plain %d", NetCut(h, refined), NetCut(h, plain))
	}
	// k > 2 uses pairwise FM sweeps and must not worsen either.
	plain4, err := PartitionCtx(context.Background(), h, Options{K: 4, Method: MELO})
	if err != nil {
		t.Fatal(err)
	}
	refined4, err := PartitionCtx(context.Background(), h, Options{K: 4, Method: MELO, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if NetCut(h, refined4) > NetCut(h, plain4) {
		t.Errorf("k-way refined cut %d worse than plain %d", NetCut(h, refined4), NetCut(h, plain4))
	}
}

func TestOrderModules(t *testing.T) {
	h := smallBenchmark(t)
	order, err := OrderModulesWithSpectrum(context.Background(), h, nil, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != h.NumModules() {
		t.Fatalf("ordering length %d", len(order))
	}
	seen := make([]bool, len(order))
	for _, v := range order {
		if seen[v] {
			t.Fatal("ordering repeats a module")
		}
		seen[v] = true
	}
}

func TestHLRejectsNonPowerOfTwo(t *testing.T) {
	h := smallBenchmark(t)
	if _, err := PartitionCtx(context.Background(), h, Options{K: 3, Method: HL}); err == nil {
		t.Error("HL with K=3 accepted")
	}
}

func TestMethodStringRoundTrip(t *testing.T) {
	for m := MELO; m <= TwoVectorTripartition; m++ {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("round trip failed for %v", m)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestLoadSaveNetlist(t *testing.T) {
	h := smallBenchmark(t)
	var buf bytes.Buffer
	if err := SaveNetlist(&buf, "x", h); err != nil {
		t.Fatal(err)
	}
	name, h2, err := LoadNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "x" || h2.NumNets() != h.NumNets() || h2.NumPins() != h.NumPins() {
		t.Error("round trip changed the netlist")
	}
}

func TestLoadNetlistError(t *testing.T) {
	if _, _, err := LoadNetlist(strings.NewReader("garbage line\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 12 {
		t.Fatalf("got %d benchmarks", len(names))
	}
	for _, n := range names {
		if n == "" {
			t.Fatal("empty name")
		}
	}
	if _, err := GenerateBenchmark("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMetricsConsistency(t *testing.T) {
	h := smallBenchmark(t)
	p, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MELO, MinFrac: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	cut := NetCut(h, p)
	rc := RatioCut(h, p)
	sizes := p.Sizes()
	want := float64(cut) / (float64(sizes[0]) * float64(sizes[1]))
	if diff := rc - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("RatioCut %v inconsistent with NetCut %d", rc, cut)
	}
	sc := ScaledCost(h, p)
	if diff := sc - rc; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ScaledCost %v != RatioCut %v for k=2", sc, rc)
	}
}
