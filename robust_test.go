package spectral

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/resilience"
)

// validPartition fails the test unless p is a complete, in-range k-way
// assignment of h's modules.
func validPartition(t *testing.T, h *Netlist, p *Partitioning, k int) {
	t.Helper()
	if err := checkPartitioning(h, p, k); err != nil {
		t.Fatal(err)
	}
}

// faultPolicy attaches the plan. Every plan below fails attempt 1, the
// dense-direct solve a small netlist starts with, so the ladder's
// sparse Lanczos rungs run (plan attempts 2–4, dense fallback 5) and
// the plan's other faults hit them.
func faultPolicy(plan *resilience.FaultPlan) resilience.EigenPolicy {
	return resilience.EigenPolicy{Faults: plan}
}

// Each ladder rung, end to end: a fault plan drives the eigensolver down
// one recovery path and the pipeline must still return a valid
// partitioning.
func TestPartitionFaultInjectionLadder(t *testing.T) {
	h := smallBenchmark(t)
	cases := []struct {
		name string
		plan *resilience.FaultPlan
	}{
		{"seed-restart", &resilience.FaultPlan{FailAttempts: []int{1, 2}}},
		{"krylov-escalation", &resilience.FaultPlan{FailAttempts: []int{1}, StallAttempts: []int{2}}},
		{"dense-fallback", &resilience.FaultPlan{FailAttempts: []int{1}, StallAttempts: []int{2, 3, 4}}},
		{"nan-breakdown", &resilience.FaultPlan{FailAttempts: []int{1}, NaNAttempts: []int{2}, NaNStep: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := faultPolicy(tc.plan)
			p, err := runPartition(context.Background(), h, nil, Options{K: 4, Method: MELO, D: 3}, pol)
			if err != nil {
				t.Fatal(err)
			}
			validPartition(t, h, p, 4)
			if tc.plan.Attempts() < 3 {
				t.Fatalf("fault plan never fired: %d attempts", tc.plan.Attempts())
			}
		})
	}
}

// The degradation rung: every sparse attempt stalls with only a prefix
// converged and the dense fallback fails, so MELO must run on a
// degraded (d' < d) decomposition — and still produce a valid result.
func TestPartitionEigenvectorDegradation(t *testing.T) {
	h := smallBenchmark(t)
	pol := faultPolicy(&resilience.FaultPlan{FailAttempts: []int{1, 5}, StallAttempts: []int{2, 3, 4}, StallConverged: 3})
	p, err := runPartition(context.Background(), h, nil, Options{K: 4, Method: MELO, D: 5}, pol)
	if err != nil {
		t.Fatal(err)
	}
	validPartition(t, h, p, 4)
}

// Exhausting every rung must yield a stage-attributed *PipelineError,
// never a partial or invalid partitioning.
func TestPartitionLadderExhausted(t *testing.T) {
	h := smallBenchmark(t)
	pol := faultPolicy(&resilience.FaultPlan{FailAttempts: []int{1, 2, 3, 4, 5}})
	p, err := runPartition(context.Background(), h, nil, Options{K: 4, Method: MELO, D: 3}, pol)
	if p != nil {
		t.Fatal("got a partitioning despite total eigensolver failure")
	}
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PipelineError", err)
	}
	if pe.Stage != "eigen" {
		t.Fatalf("failure attributed to %q, want eigen", pe.Stage)
	}
	if !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("error chain %v lost the injected cause", err)
	}
}

func TestPartitionCtxPreCancelled(t *testing.T) {
	h := smallBenchmark(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MELO, SB, RSB} {
		if _, err := PartitionCtx(ctx, h, Options{K: 2, Method: m}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: got %v, want context.Canceled", m, err)
		}
	}
}

func TestPartitionCtxDeadline(t *testing.T) {
	h, err := GenerateBenchmark("prim2", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = PartitionCtx(ctx, h, Options{K: 4, Method: MELO})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; want within one iteration-check interval", elapsed)
	}
}

// cancelAfterEntryCtx passes its first Err check — the façade's entry
// check — and reports context.Canceled on every later one, so only a
// stage that honours the run's ctx can notice the cancellation.
type cancelAfterEntryCtx struct {
	context.Context
	checks atomic.Int32
}

func (c *cancelAfterEntryCtx) Err() error {
	if c.checks.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// A Barnes run must stop its eigensolve when the run's ctx is
// cancelled, like every other method.
func TestPartitionBarnesHonoursCtx(t *testing.T) {
	h := smallBenchmark(t)
	ctx := &cancelAfterEntryCtx{Context: context.Background()}
	p, err := PartitionCtx(ctx, h, Options{K: 2, Method: Barnes})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got partition %v, err %v; want context.Canceled", p != nil, err)
	}
}

func TestOrderModulesCtxCancelled(t *testing.T) {
	h := smallBenchmark(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OrderModulesWithSpectrum(ctx, h, nil, 3, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// disconnectedNetlist builds two clique-connected groups with no net
// between them.
func disconnectedNetlist(t *testing.T, groups ...int) *Netlist {
	t.Helper()
	b := hypergraph.NewBuilder()
	base := 0
	for gi, size := range groups {
		b.AddModules(size)
		for i := 0; i < size-1; i++ {
			name := "n" + string(rune('a'+gi)) + string(rune('0'+i))
			if err := b.AddNet(name, base+i, base+i+1); err != nil {
				t.Fatal(err)
			}
		}
		base += size
	}
	return b.Build()
}

// Disconnected netlists must flow end to end: per-component eigensolves
// feed MELO/SB, and the obvious zero-cut split must be available.
func TestPartitionDisconnectedNetlist(t *testing.T) {
	h := disconnectedNetlist(t, 8, 8)
	for _, m := range []Method{MELO, SB, RSB} {
		p, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: m, D: 3})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		validPartition(t, h, p, 2)
		if cut := NetCut(h, p); cut != 0 {
			t.Errorf("%v: cut %d on a disconnected netlist, want 0", m, cut)
		}
	}
}

func TestPartitionDisconnectedUnevenComponents(t *testing.T) {
	h := disconnectedNetlist(t, 12, 5, 3)
	p, err := PartitionCtx(context.Background(), h, Options{K: 3, Method: MELO, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	validPartition(t, h, p, 3)
}

// Zero net weights in an hMETIS file are legal (the in-memory model is
// unweighted); the parse and the full pipeline must both survive them.
func TestPartitionZeroWeightNets(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("6 6 1\n")
	nets := [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 1}}
	for i, net := range nets {
		w := 1
		if i%2 == 0 {
			w = 0
		}
		sb.WriteString(itoa(w) + " " + itoa(net[0]) + " " + itoa(net[1]) + "\n")
	}
	h, err := LoadHMetis(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MELO, SB, RSB} {
		p, err := PartitionCtx(context.Background(), h, Options{K: 2, Method: m, D: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		validPartition(t, h, p, 2)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestOptionsValidation(t *testing.T) {
	h := disconnectedNetlist(t, 5, 5)
	bad := []Options{
		{K: 1},
		{K: -3},
		{K: 11},
		{K: 2, D: -1},
		{K: 2, D: 11},
		{K: 2, Scheme: 7},
		{K: 2, MinFrac: 0.7},
		{K: 2, MinFrac: -0.1},
	}
	for _, o := range bad {
		_, err := PartitionCtx(context.Background(), h, o)
		var pe *PipelineError
		if !errors.As(err, &pe) || pe.Stage != "validate" {
			t.Fatalf("%+v: got %v, want validate-stage PipelineError", o, err)
		}
	}
	// The zero value still means "defaults", not "invalid".
	if _, err := PartitionCtx(context.Background(), h, Options{}); err != nil {
		t.Fatalf("zero-value options rejected: %v", err)
	}
}

func TestValidateNetlistRejectsGarbage(t *testing.T) {
	if err := ValidateNetlist(nil); err == nil {
		t.Fatal("nil netlist accepted")
	}
	if err := ValidateNetlist(hypergraph.NewBuilder().Build()); err == nil {
		t.Fatal("empty netlist accepted")
	}
	bad := &hypergraph.Hypergraph{
		Names:    []string{"a", "b"},
		Nets:     [][]int{{0, 5}},
		NetNames: []string{"n"},
	}
	if err := ValidateNetlist(bad); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
}

func TestGenerateBenchmarkBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, nan()} {
		if _, err := GenerateBenchmark("prim1", scale); err == nil {
			t.Fatalf("scale %v accepted", scale)
		}
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func TestPipelinePanicRecovery(t *testing.T) {
	pl := &pipeline{o: Options{Method: MELO}.withDefaults(), stage: resilience.StageOrdering}
	err := pl.protect(func() error { panic("boom") })
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PipelineError", err)
	}
	if !pe.Panicked || pe.Stage != "ordering" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured with stage+stack: %+v", pe)
	}
}

// wrapPipelineErr attributes a plain error to the running stage, keeps
// an attribution made deeper in the pipeline (a recovered panic, or a
// nested pipeline's error), and passes context errors and nil through.
func TestWrapPipelineErrKeepsInnerAttribution(t *testing.T) {
	cause := errors.New("diverged")
	err := wrapPipelineErr(MELO, resilience.StageSplit, cause)
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != "split" || pe.Panicked || !errors.Is(err, cause) {
		t.Fatalf("plain error: got %v, want a split-stage PipelineError wrapping the cause", err)
	}

	inner := &PipelineError{Stage: "eigen", Method: MELO, Err: cause}
	sub := &pipeline{o: Options{Method: MultilevelMELO}.withDefaults(), stage: resilience.StageMultilevel}
	err = wrapPipelineErr(MultilevelMELO, resilience.StageMultilevel, sub.protect(func() error { return inner }))
	if err != inner {
		t.Fatalf("nested attribution: got %v, want the inner eigen-stage error unchanged", err)
	}
	err = wrapPipelineErr(MELO, resilience.StageSplit, sub.protect(func() error { panic("boom") }))
	if !errors.As(err, &pe) || !pe.Panicked || pe.Stage != "multilevel" {
		t.Fatalf("nested panic: got %v, want the multilevel-stage panic attribution", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := wrapPipelineErr(MELO, resilience.StageEigen, ctx.Err()); err != context.Canceled {
		t.Fatalf("context error: got %v, want context.Canceled unwrapped", err)
	}
	if err := wrapPipelineErr(MELO, resilience.StageEigen, nil); err != nil {
		t.Fatalf("nil error: got %v", err)
	}
}
