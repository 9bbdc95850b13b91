package spectral

import (
	"context"
	"strings"
	"testing"
)

func TestMethodRegistryComplete(t *testing.T) {
	names := MethodNames()
	if len(names) != len(methodTable) {
		t.Fatalf("MethodNames returned %d names for %d methods", len(names), len(methodTable))
	}
	seen := make(map[string]bool)
	for i, name := range names {
		if name == "" {
			t.Fatalf("method %d has an empty name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate method name %q", name)
		}
		seen[name] = true
		if methodTable[i].run == nil || methodTable[i].spec == nil {
			t.Fatalf("method %q is missing a pipeline or spec", name)
		}
		if MethodSummary(Method(i)) == "" {
			t.Fatalf("method %q has no summary", name)
		}
	}
	if MethodSummary(Method(999)) != "" {
		t.Error("unknown method has a summary")
	}
	if !strings.Contains(methodHelp(), "melo|") {
		t.Errorf("methodHelp() = %q", methodHelp())
	}
}

func TestMultilevelMELOPartitions(t *testing.T) {
	h := smallBenchmark(t)
	for _, k := range []int{2, 4} {
		p, err := PartitionCtx(context.Background(), h, Options{K: k, Method: MultilevelMELO, CoarsenThreshold: 8})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.K != k || p.N() != h.NumModules() {
			t.Fatalf("k=%d: got K=%d N=%d", k, p.K, p.N())
		}
		for c, s := range p.Sizes() {
			if s == 0 {
				t.Fatalf("k=%d: cluster %d empty", k, c)
			}
		}
	}
}

func TestMultilevelMELOMatchesFlatObjective(t *testing.T) {
	// The V-cycle optimizes the same net-cut objective as flat MELO; on a
	// small instance its cut should land in the same ballpark (within 2x),
	// not at a random-partition level.
	h := smallBenchmark(t)
	flat, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MELO})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MultilevelMELO, CoarsenThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	fc, mc := NetCut(h, flat), NetCut(h, ml)
	if mc > 2*fc+10 {
		t.Errorf("multilevel cut %d vs flat cut %d", mc, fc)
	}
}

func TestRecursiveBisectionPartitions(t *testing.T) {
	h := smallBenchmark(t)
	for _, k := range []int{2, 3, 5} {
		p, err := PartitionCtx(context.Background(), h, Options{K: k, Method: RecursiveBisection})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if p.K != k || p.N() != h.NumModules() {
			t.Fatalf("k=%d: got K=%d N=%d", k, p.K, p.N())
		}
		for c, s := range p.Sizes() {
			if s == 0 {
				t.Fatalf("k=%d: cluster %d empty", k, c)
			}
		}
	}
}

func TestTwoVectorTripartitionPartitions(t *testing.T) {
	h := smallBenchmark(t)
	p, err := PartitionCtx(context.Background(), h, Options{K: 3, Method: TwoVectorTripartition})
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 3 || p.N() != h.NumModules() {
		t.Fatalf("got K=%d N=%d", p.K, p.N())
	}
	for c, s := range p.Sizes() {
		if s == 0 {
			t.Fatalf("cluster %d empty", c)
		}
	}
	if _, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: TwoVectorTripartition}); err == nil {
		t.Error("TwoVectorTripartition with K=2 accepted")
	}
}

func TestNewMethodSpectrumSpecs(t *testing.T) {
	if spec := (Options{Method: MultilevelMELO}).SpectrumSpec(); spec.Needed {
		t.Error("MultilevelMELO claims a reusable decomposition")
	}
	spec := (Options{Method: RecursiveBisection, K: 5}).SpectrumSpec()
	if !spec.Needed || spec.Model != ModelPartitioningSpecific || spec.D != 3 {
		t.Errorf("RecursiveBisection K=5 spec = %+v", spec)
	}
	spec = (Options{Method: TwoVectorTripartition, K: 3}).SpectrumSpec()
	if !spec.Needed || spec.D != 2 {
		t.Errorf("TwoVectorTripartition spec = %+v", spec)
	}
}

func TestMultilevelOptionValidation(t *testing.T) {
	h := smallBenchmark(t)
	if _, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MultilevelMELO, CoarsenThreshold: -1}); err == nil {
		t.Error("negative CoarsenThreshold accepted")
	}
	if _, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MultilevelMELO, MaxLevels: -1}); err == nil {
		t.Error("negative MaxLevels accepted")
	}
	// RefinePasses < 0 is the documented "disable refinement" setting.
	if _, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: MultilevelMELO, RefinePasses: -1}); err != nil {
		t.Errorf("RefinePasses = -1 rejected: %v", err)
	}
}
