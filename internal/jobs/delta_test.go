package jobs

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/trace"
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

// storeBase adds base to p's netlist store and returns its hash, the
// name a delta request gives its base.
func storeBase(t *testing.T, p *Pool, base *spectral.Netlist) string {
	t.Helper()
	st, err := p.AddNetlist("", base)
	if err != nil {
		t.Fatal(err)
	}
	return st.Hash
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

	baseHash := storeBase(t, p, base)
	j, err := p.Submit(Request{Kind: KindDelta, Opts: opts, BaseHash: baseHash, Delta: d})
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
	if _, want, _ := delta.Apply(base, d); res.Reach == nil || *res.Reach != want || j.Reach() != res.Reach {
		t.Errorf("reach = %+v (job %+v), want delta.Apply's %+v", res.Reach, j.Reach(), want)
	}
	if res.Stability == nil {
		t.Fatal("result lacks a stability report")
	}
	if res.Stability.NewCut != res.NetCut {
		t.Errorf("stability NewCut %d != job cut %d", res.Stability.NewCut, res.NetCut)
	}
	st := p.Stats()
	if st.WarmAccepted+st.WarmSeeded+st.WarmRejected != 1 {
		t.Errorf("warm counters %d/%d/%d, want exactly one outcome",
			st.WarmAccepted, st.WarmSeeded, st.WarmRejected)
	}

	// Same delta again: the mutated spectrum is cached now, so no solve
	// and no new warm outcome.
	j2, err := p.Submit(Request{Kind: KindDelta, Opts: opts, BaseHash: baseHash, Delta: d})
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
	j, err := p.Submit(Request{Kind: KindDelta, Opts: opts, BaseHash: storeBase(t, p, base), Delta: d})
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

// Submit owns the delta: it resolves the base by hash and applies the
// edit, refusing an unknown base, an edit that does not apply and a
// missing delta before anything is queued. A delta refused after it
// applied (invalid options, a full queue, a pool shutting down) leaves
// its mutant out of the netlist store, and no refusal appends a journal
// byte.
func TestDeltaSubmitValidation(t *testing.T) {
	defer leakCheck(t)()
	base, d, _ := deltaBase(t)
	jnl, _ := openJournal(t, t.TempDir())
	defer jnl.Close()
	p := NewPool(Config{Workers: 1, QueueDepth: 1, Journal: jnl})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		started <- struct{}{}
		<-release
		return &Result{}, nil
	}
	p.Start()
	refused := func(req Request) error {
		t.Helper()
		before := jnl.Stats().BytesAppended
		_, err := p.Submit(req)
		if n := jnl.Stats().BytesAppended - before; n != 0 {
			t.Errorf("refused submit (%v) appended %d journal bytes, want 0", err, n)
		}
		return err
	}

	if err := refused(Request{Kind: KindDelta, Opts: optsMELO(2), BaseHash: "nope", Delta: d}); !errors.Is(err, ErrUnknownNetlist) {
		t.Errorf("delta against an unknown base: err = %v, want ErrUnknownNetlist", err)
	}
	baseHash := storeBase(t, p, base)
	bad := &delta.Delta{RemoveNets: []string{"no-such-net"}}
	if err := refused(Request{Kind: KindDelta, Opts: optsMELO(2), BaseHash: baseHash, Delta: bad}); !errors.Is(err, ErrBadDelta) {
		t.Errorf("delta that does not apply: err = %v, want ErrBadDelta", err)
	}
	if err := refused(Request{Kind: KindDelta, Opts: optsMELO(2), BaseHash: baseHash}); err == nil || errors.Is(err, ErrBadDelta) {
		t.Errorf("delta job without a delta: err = %v, want a refusal that is not ErrBadDelta", err)
	}
	if err := refused(Request{Kind: KindDelta, Opts: spectral.Options{K: -3, Method: spectral.MELO}, BaseHash: baseHash, Delta: d}); err == nil {
		t.Error("delta job with invalid options accepted")
	}
	if n := len(p.Jobs()); n != 0 {
		t.Errorf("%d jobs queued by refused submissions, want 0", n)
	}

	// One job on the worker and one in the queue fill the pool.
	if _, err := p.Submit(Request{Netlist: base, Opts: optsMELO(2)}); err != nil {
		t.Fatal(err)
	}
	// The worker journals the job's start record before it runs it, so
	// no write of the running job lands in the refusal's byte count.
	<-started
	if _, err := p.Submit(Request{Netlist: base, Opts: optsMELO(2)}); err != nil {
		t.Fatal(err)
	}
	if err := refused(Request{Kind: KindDelta, Opts: optsMELO(2), BaseHash: baseHash, Delta: d}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("delta job on a full queue: err = %v, want ErrQueueFull", err)
	}
	close(release)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := refused(Request{Kind: KindDelta, Opts: optsMELO(2), BaseHash: baseHash, Delta: d}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("delta job on a shut-down pool: err = %v, want ErrShuttingDown", err)
	}
	if st := p.Netlists(); len(st) != 1 || st[0].Hash != baseHash {
		t.Errorf("netlist store after refused deltas holds %+v, want only the base %s", st, baseHash)
	}
}

// cancelOnSpan cancels the job it holds when the first span named name
// ends.
type cancelOnSpan struct {
	name string
	job  atomic.Pointer[Job]
	once sync.Once
}

func (c *cancelOnSpan) Record(r trace.SpanRecord) {
	if j := c.job.Load(); j != nil && r.Name == c.name {
		c.once.Do(j.Cancel)
	}
}

// A delta job's stability report partitions the base once per base
// netlist and option set: later deltas reuse the memoized partition and
// report exactly what fresh partitions of both netlists give.
func TestDeltaStabilityBaseMemo(t *testing.T) {
	defer leakCheck(t)()
	base := testNetlist(t)
	deltas := []*delta.Delta{
		{RemoveNets: []string{base.NetNames[0]}, AddNets: []delta.NetChange{{Name: "eco-x", Modules: []int{1, base.NumModules() - 2}}}},
		{AddNets: []delta.NetChange{{Name: "eco-y", Modules: []int{0, 3, base.NumModules() - 1}}}},
	}
	fresh := func(h *spectral.Netlist, opts spectral.Options) *spectral.Partitioning {
		t.Helper()
		part, err := spectral.PartitionCtx(context.Background(), h, opts)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}

	// The cancel sink only fires for a job it has been handed, so every
	// case but (d) runs untouched.
	sink := &cancelOnSpan{name: "partition"}
	tracer := trace.New(sink)
	p := NewPool(Config{Workers: 1, QueueDepth: 4, MaxNetlists: 2})
	p.SetTracer(tracer)
	p.Start()
	defer p.Shutdown(context.Background())

	baseHash := storeBase(t, p, base)
	counts := func(hits, misses int64) {
		t.Helper()
		if h, m := tracer.Counter("jobs.stability_base.hits"), tracer.Counter("jobs.stability_base.misses"); h != hits || m != misses {
			t.Errorf("stability base hits/misses = %d/%d, want %d/%d", h, m, hits, misses)
		}
	}
	runDelta := func(dl *delta.Delta, opts spectral.Options) {
		t.Helper()
		j, err := p.Submit(Request{Kind: KindDelta, Opts: opts, BaseHash: baseHash, Delta: dl})
		if err != nil {
			t.Fatal(err)
		}
		res := waitDone(t, j)
		mut, _, err := delta.Apply(base, dl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := spectral.PartitionStability(base, mut, fresh(base, opts), fresh(mut, opts))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Stability, want) {
			t.Errorf("K = %d: stability %+v, want %+v", opts.K, res.Stability, want)
		}
	}
	memoHolds := func(opts spectral.Options) {
		t.Helper()
		got, ok := p.stabilityBase(baseHash, opts)
		if want := fresh(base, opts); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("K = %d: memo holds %+v (ok %v), want the fresh base partition", opts.K, got, ok)
		}
	}

	// (a) Two deltas against one base at K = 2: one miss, then one hit.
	runDelta(deltas[0], optsMELO(2))
	counts(0, 1)
	runDelta(deltas[1], optsMELO(2))
	counts(1, 1)
	memoHolds(optsMELO(2))

	// (b) K = 3 against the same base misses and replaces the slot.
	runDelta(deltas[0], optsMELO(3))
	counts(1, 2)
	memoHolds(optsMELO(3))
	if _, ok := p.stabilityBase(baseHash, optsMELO(2)); ok {
		t.Error("K = 2 partition still memoized after a K = 3 delta")
	}

	// (c) Evicting the base drops its memo: after a re-upload the same
	// K = 3 delta misses again.
	storeBase(t, p, otherNetlist(t))
	if _, ok := p.stabilityBase(baseHash, optsMELO(3)); ok {
		t.Fatal("base still memoized after eviction")
	}
	storeBase(t, p, base)
	runDelta(deltas[1], optsMELO(3))
	counts(1, 3)

	// (d) A job cancelled as its base partition starts memoizes nothing.
	storeBase(t, p, otherNetlist(t)) // evicts the base's K = 3 memo...
	storeBase(t, p, base)            // ...and re-uploads the base bare
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		sink.job.Store(j)
		return p.run(ctx, j)
	}
	j, err := p.Submit(Request{Kind: KindDelta, Opts: optsMELO(2), BaseHash: baseHash, Delta: deltas[0]})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != Cancelled {
		t.Fatalf("job cancelled during the base partition ended %s", j.State())
	}
	counts(1, 4)
	if _, ok := p.stabilityBase(baseHash, optsMELO(2)); ok {
		t.Error("a cancelled base partition was memoized")
	}
}

// otherNetlist is a netlist distinct from testNetlist, to push an entry
// out of a small netlist store.
func otherNetlist(t *testing.T) *spectral.Netlist {
	t.Helper()
	h, err := spectral.GenerateBenchmark("prim1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return h
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
	j, err := p1.Submit(Request{Kind: KindDelta, Opts: opts, BaseHash: storeBase(t, p1, base), Delta: d})
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
