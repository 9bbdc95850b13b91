package jobs

import (
	"context"
	"reflect"
	"testing"
	"time"

	spectral "repro"
	"repro/internal/delta"
)

// deltaBase returns a base netlist plus a structural ECO delta and the
// mutated netlist it produces.
func deltaBase(t *testing.T) (*spectral.Netlist, *delta.Delta, *spectral.Netlist) {
	t.Helper()
	base := testNetlist(t)
	d := &delta.Delta{
		RemoveNets: []string{base.NetNames[0]},
		AddNets:    []delta.NetChange{{Name: "eco-x", Modules: []int{1, base.NumModules() - 2}}},
	}
	mut, _, err := delta.Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	return base, d, mut
}

// The delta path's core contract: the warm-started result is
// indistinguishable from partitioning the mutated netlist cold.
func TestDeltaJobMatchesColdPartition(t *testing.T) {
	defer leakCheck(t)()
	base, d, mut := deltaBase(t)
	opts := optsMELO(2)
	p := NewPool(Config{Workers: 2, QueueDepth: 8})
	p.Start()
	defer p.Shutdown(context.Background())

	// Partition the base first, as an ECO flow would: its spectrum is
	// then sitting in the LRU for the delta job to seed from.
	bj, err := p.Submit(Request{Netlist: base, Kind: KindPartition, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bj)

	j, err := p.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: opts, BaseNetlist: base, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, j)

	cold, err := spectral.PartitionCtx(context.Background(), mut, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assign.Ints(), cold.Assign) {
		t.Errorf("delta partition differs from cold partition of the mutated netlist")
	}
	if res.NetCut != spectral.NetCut(mut, cold) {
		t.Errorf("reported cut %d != recomputed cold cut %d", res.NetCut, spectral.NetCut(mut, cold))
	}
	if res.BaseHash == "" {
		t.Error("result lacks the base hash")
	}
	switch res.WarmStart {
	case spectral.WarmOutcomeAccepted, spectral.WarmOutcomeSeeded,
		spectral.WarmOutcomeRejected, spectral.WarmOutcomeCold:
	default:
		t.Errorf("warmStart = %q, want a warm outcome", res.WarmStart)
	}
	if res.Reach == nil || res.Reach.Nets < 2 {
		t.Errorf("reach = %+v, want >= 2 touched nets (one removed, one added)", res.Reach)
	}
	if res.Stability == nil {
		t.Fatal("result lacks a stability report")
	}
	if res.Stability.NewCut != res.NetCut {
		t.Errorf("stability NewCut %d != job cut %d", res.Stability.NewCut, res.NetCut)
	}
	st := p.Stats()
	if st.WarmAccepted+st.WarmSeeded+st.WarmRejected+st.WarmCold != 1 {
		t.Errorf("warm counters %d/%d/%d/%d, want exactly one outcome",
			st.WarmAccepted, st.WarmSeeded, st.WarmRejected, st.WarmCold)
	}

	// Same delta again: the mutated spectrum is cached now, so no solve
	// and no new warm outcome.
	j2, err := p.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: opts, BaseNetlist: base, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	res2 := waitDone(t, j2)
	if !res2.SpectrumCacheHit || res2.WarmStart != "cached" {
		t.Errorf("resubmitted delta: hit=%v warmStart=%q, want cached hit", res2.SpectrumCacheHit, res2.WarmStart)
	}
	if !reflect.DeepEqual(res2.Assign, res.Assign) {
		t.Error("resubmitted delta returned a different partition")
	}
}

// An area-only delta leaves the clique-model operator untouched: the
// base spectrum passes the residual check verbatim and the job runs
// with no eigensolve at all.
func TestDeltaJobAcceptsAreaOnlySeed(t *testing.T) {
	defer leakCheck(t)()
	base := testNetlist(t)
	d := &delta.Delta{SetAreas: []delta.AreaChange{{Module: 0, Area: 2.5}}}
	mut, _, err := delta.Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	opts := optsMELO(2)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	p.Start()
	defer p.Shutdown(context.Background())

	bj, err := p.Submit(Request{Netlist: base, Kind: KindPartition, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bj)
	j, err := p.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: opts, BaseNetlist: base, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, j)
	if res.WarmStart != spectral.WarmOutcomeAccepted {
		t.Fatalf("warmStart = %q, want accepted (operator unchanged)", res.WarmStart)
	}
	if st := p.Stats(); st.WarmAccepted != 1 {
		t.Errorf("WarmAccepted = %d, want 1", st.WarmAccepted)
	}
	cold, err := spectral.PartitionCtx(context.Background(), mut, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assign.Ints(), cold.Assign) {
		t.Error("accepted-seed partition differs from cold partition")
	}
}

// DisableWarmStart must force cold solves while leaving the answer
// bit-identical.
func TestDeltaJobDisableWarmStart(t *testing.T) {
	defer leakCheck(t)()
	base, d, mut := deltaBase(t)
	opts := optsMELO(2)
	p := NewPool(Config{Workers: 1, QueueDepth: 8, DisableWarmStart: true})
	p.Start()
	defer p.Shutdown(context.Background())

	j, err := p.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: opts, BaseNetlist: base, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, j)
	if res.WarmStart != spectral.WarmOutcomeCold {
		t.Errorf("warmStart = %q with warm starts disabled, want cold", res.WarmStart)
	}
	if st := p.Stats(); st.WarmCold != 1 || st.WarmAccepted+st.WarmSeeded+st.WarmRejected != 0 {
		t.Errorf("warm counters %+v, want exactly one cold", st)
	}
	cold, err := spectral.PartitionCtx(context.Background(), mut, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assign.Ints(), cold.Assign) {
		t.Error("cold delta partition differs from facade cold partition")
	}
}

func TestDeltaSubmitValidation(t *testing.T) {
	defer leakCheck(t)()
	base, d, mut := deltaBase(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 4})
	p.Start()
	defer p.Shutdown(context.Background())

	if _, err := p.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: optsMELO(2)}); err == nil {
		t.Error("delta job without a base netlist accepted")
	}
	other, err := spectral.GenerateBenchmark("prim1", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: optsMELO(2), BaseNetlist: other}); err == nil {
		t.Error("delta job with a module-count mismatch accepted")
	}
	if _, err := p.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: spectral.Options{K: -3, Method: spectral.MELO}, BaseNetlist: base, Delta: d}); err == nil {
		t.Error("delta job with invalid options accepted")
	}
}

// Crash-safety: a delta job interrupted mid-flight is re-enqueued on
// replay with both netlist bodies recovered, and completes with the
// full delta result.
func TestDeltaJournalReplay(t *testing.T) {
	defer leakCheck(t)()
	base, d, mut := deltaBase(t)
	opts := optsMELO(2)
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)

	p1 := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl})
	p1.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	p1.Start()
	j, err := p1.Submit(Request{Netlist: mut, Kind: KindDelta, Opts: opts, BaseNetlist: base, Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() != Running {
		time.Sleep(time.Millisecond)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p1.Shutdown(expired)

	jnl2, rep := openJournal(t, dir)
	defer jnl2.Close()
	p2 := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl2})
	stats, err := p2.Restore(rep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reenqueued != 1 || stats.FailedOnReplay != 0 {
		t.Fatalf("restore stats %+v, want 1 re-enqueued", stats)
	}
	if stats.Netlists != 2 {
		t.Fatalf("restored %d netlists, want 2 (base + mutated)", stats.Netlists)
	}
	p2.Start()
	defer p2.Shutdown(context.Background())
	rj, ok := p2.Job(j.ID())
	if !ok {
		t.Fatalf("job %s lost across restart", j.ID())
	}
	res := waitDone(t, rj)
	if res.Stability == nil || res.BaseHash == "" {
		t.Fatalf("replayed delta result incomplete: %+v", res)
	}
	cold, err := spectral.PartitionCtx(context.Background(), mut, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assign.Ints(), cold.Assign) {
		t.Error("replayed delta partition differs from cold partition")
	}
	if res.Reach == nil {
		t.Error("replayed delta result lacks reach (delta not journaled?)")
	}
}
