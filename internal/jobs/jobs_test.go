package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	spectral "repro"
	"repro/internal/speccache"
)

// leakCheck snapshots the goroutine count and returns a func that fails
// the test if the count has not returned to the baseline. Tests in this
// package must not run in parallel.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	}
}

func testNetlist(t *testing.T) *spectral.Netlist {
	t.Helper()
	h, err := spectral.GenerateBenchmark("prim1", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func waitDone(t *testing.T, j *Job) *Result {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID(), j.State())
	}
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job %s: %v", j.ID(), err)
	}
	return res
}

// A second request for the same netlist with a different method, K or d
// must hit the spectrum cache: one eigensolve serves them all.
func TestSpectrumReusedAcrossMethodsAndK(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 2, QueueDepth: 16})
	p.Start()
	defer p.Shutdown(context.Background())

	first, err := p.Submit(Request{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.MELO}})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitDone(t, first); res.SpectrumCacheHit {
		t.Error("first job cannot be a cache hit")
	}
	if st := p.Cache().Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first job: cache stats %+v, want exactly 1 miss", st)
	}

	// Different K, different method, and an ordering job: all reuse the
	// partitioning-specific decomposition computed above.
	reusers := []Request{
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 4, Method: spectral.MELO}},
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.SFC}},
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.SB}},
		{Netlist: h, Kind: KindOrder, Opts: spectral.Options{D: 5}},
	}
	for i, req := range reusers {
		j, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		res := waitDone(t, j)
		if !res.SpectrumCacheHit {
			t.Errorf("request %d: spectrum cache miss, want hit", i)
		}
	}
	st := p.Cache().Stats()
	if st.Misses != 1 {
		t.Errorf("eigensolve ran %d times across 5 jobs, want once", st.Misses)
	}
	if st.Hits != uint64(len(reusers)) {
		t.Errorf("cache hits = %d, want %d", st.Hits, len(reusers))
	}

	// KP uses the Frankle clique model: a genuinely different
	// decomposition, so a second (and only a second) eigensolve.
	kp, err := p.Submit(Request{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.KP}})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitDone(t, kp); res.SpectrumCacheHit {
		t.Error("KP must not reuse the partitioning-specific spectrum")
	}
	if st := p.Cache().Stats(); st.Misses != 2 {
		t.Errorf("misses = %d after KP, want 2", st.Misses)
	}
}

func TestQueueBackpressure(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		select {
		case <-release:
			return &Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p.Start()
	defer p.Shutdown(context.Background())

	running, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the first job, so the queue is empty.
	for running.State() != Running {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Submit(Request{Netlist: h}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := p.Submit(Request{Netlist: h}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: err = %v, want ErrQueueFull", err)
	}
	st := p.Stats()
	if st.Rejected != 1 || st.QueueDepth != 2 {
		t.Errorf("stats = %+v, want 1 rejected, queue depth 2", st)
	}
	close(release)
}

// Shutdown with headroom must drain: queued jobs run to completion.
func TestShutdownDrains(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	p.Start()
	var submitted []*Job
	for i := 0; i < 3; i++ {
		j, err := p.Submit(Request{Netlist: h, Opts: spectral.Options{K: 2, Method: spectral.MELO}})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, j)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, j := range submitted {
		if j.State() != Done {
			t.Errorf("job %d: state %s after drain, want done", i, j.State())
		}
	}
	if _, err := p.Submit(Request{Netlist: h}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
}

// Shutdown whose context expires must cancel in-flight and queued jobs
// instead of waiting forever — and still not leak the workers.
func TestShutdownCancelsOnDeadline(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{}, 8)
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		started <- struct{}{}
		<-ctx.Done() // simulate a job that only stops via cancellation
		return nil, ctx.Err()
	}
	p.Start()
	inflight, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("shutdown err = %v, want DeadlineExceeded", err)
	}
	for i, j := range []*Job{inflight, queued} {
		if st := j.State(); st != Cancelled {
			t.Errorf("job %d: state %s, want cancelled", i, st)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{}, 8)
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	p.Start()
	defer p.Shutdown(context.Background())

	running, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !p.Cancel(queued.ID()) {
		t.Error("cancel queued returned false")
	}
	if !p.Cancel(running.ID()) {
		t.Error("cancel running returned false")
	}
	for _, j := range []*Job{running, queued} {
		<-j.Done()
		if j.State() != Cancelled {
			t.Errorf("job %s: state %s, want cancelled", j.ID(), j.State())
		}
		if _, err := j.Result(); !errors.Is(err, context.Canceled) {
			t.Errorf("job %s: result err %v, want context.Canceled", j.ID(), err)
		}
	}
	if p.Cancel(running.ID()) {
		t.Error("cancelling a finished job returned true")
	}
	if p.Cancel("job-999999") {
		t.Error("cancelling an unknown job returned true")
	}
}

func TestJobFailureIsAttributed(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 4})
	p.Start()
	defer p.Shutdown(context.Background())

	// SB is a bipartitioner: K=4 fails validation inside the pipeline.
	j, err := p.Submit(Request{Netlist: h, Opts: spectral.Options{K: 4, Method: spectral.SB}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != Failed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	var pe *spectral.PipelineError
	if _, err := j.Result(); !errors.As(err, &pe) {
		t.Errorf("result err = %v, want *spectral.PipelineError", err)
	}
	if st := j.Status(); st.Error == "" || st.State != Failed {
		t.Errorf("status = %+v, want error text and failed state", st)
	}
}

func TestStatsAndStatusSnapshot(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 2, QueueDepth: 4})
	p.Start()
	defer p.Shutdown(context.Background())

	j, err := p.Submit(Request{Netlist: h, Opts: spectral.Options{K: 3, Method: spectral.MELO, D: 6}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	st := j.Status()
	if st.State != Done || st.Method != "melo" || st.K != 3 || st.D != 6 {
		t.Errorf("status = %+v", st)
	}
	if st.Started == nil || st.Finished == nil || st.Result == nil {
		t.Errorf("status missing timestamps or result: %+v", st)
	}
	if st.Hash == "" {
		t.Error("status missing netlist hash")
	}
	ps := p.Stats()
	if ps.Done != 1 || ps.Submitted != 1 || ps.Workers != 2 || ps.QueueCapacity != 4 {
		t.Errorf("pool stats = %+v", ps)
	}
	if ps.Solve.Count != 1 || ps.QueueWait.Count != 1 {
		t.Errorf("stage stats = %+v, want counts of 1", ps)
	}
	if all := p.Jobs(); len(all) != 1 || all[0].ID != j.ID() {
		t.Errorf("Jobs() = %+v", all)
	}
}

// Finished jobs beyond MaxJobs are forgotten, oldest first; live jobs
// are never dropped.
func TestJobRetention(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8, MaxJobs: 2})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) { return &Result{}, nil }
	p.Start()
	defer p.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 4; i++ {
		j, err := p.Submit(Request{Netlist: h})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if _, ok := p.Job(ids[0]); ok {
		t.Error("oldest finished job survived retention")
	}
	if _, ok := p.Job(ids[3]); !ok {
		t.Error("newest job was dropped")
	}
}

// The eigensolve is detached from the job that wins the spectrum
// cache's singleflight (see speccache.Cache.Spectrum): cancelling the winner
// mid-flight must not starve a follower waiting on the same
// decomposition — whichever job ends up computing, the follower
// finishes Done.
func TestCancelledWinnerStillFeedsFollower(t *testing.T) {
	defer leakCheck(t)()
	h, err := spectral.GenerateBenchmark("industry2", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Config{Workers: 2, QueueDepth: 8})
	p.Start()
	defer p.Shutdown(context.Background())

	req := Request{
		Netlist: h,
		Kind:    KindPartition,
		Opts:    spectral.Options{K: 2, Method: spectral.MELO, D: 30},
	}
	winner, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := p.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the winner once it has been picked up (mid-eigensolve on
	// this netlist), or while still queued on a slow machine — in every
	// interleaving the follower must complete.
	deadline := time.Now().Add(30 * time.Second)
	for winner.State() == Pending && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	p.Cancel(winner.ID())

	select {
	case <-follower.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("follower starved after winner cancel (state %s)", follower.State())
	}
	if st := follower.Status(); st.State != Done {
		t.Errorf("follower finished %s (%s), want done", st.State, st.Error)
	}
	select {
	case <-winner.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("winner never reached a terminal state")
	}
	if st := winner.State(); st != Done && st != Cancelled {
		t.Errorf("winner finished %s, want done or cancelled", st)
	}
}

// equivalenceRequests is the method/kind matrix the concurrent≡serial
// guarantee is checked against: every clique model, several K values,
// and an ordering job.
func equivalenceRequests(h *spectral.Netlist) []Request {
	return []Request{
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.MELO}},
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 4, Method: spectral.MELO}},
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.SFC}},
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.SB}},
		{Netlist: h, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.KP}},
		{Netlist: h, Kind: KindOrder, Opts: spectral.Options{D: 5}},
	}
}

func runAll(t *testing.T, p *Pool, reqs []Request) []*Result {
	t.Helper()
	jobsOut := make([]*Job, len(reqs))
	for i, req := range reqs {
		j, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobsOut[i] = j
	}
	results := make([]*Result, len(reqs))
	for i, j := range jobsOut {
		results[i] = waitDone(t, j)
	}
	return results
}

func assertSameResults(t *testing.T, want, got []*Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.K != g.K || w.NetCut != g.NetCut || w.ScaledCost != g.ScaledCost {
			t.Errorf("request %d: cut (%d, %g, k=%d) != (%d, %g, k=%d)",
				i, g.NetCut, g.ScaledCost, g.K, w.NetCut, w.ScaledCost, w.K)
		}
		wa, ga := w.Assign.Ints(), g.Assign.Ints()
		if len(wa) != len(ga) {
			t.Fatalf("request %d: assign length differs", i)
		}
		for m := range wa {
			if wa[m] != ga[m] {
				t.Fatalf("request %d: module %d assigned %d concurrent, %d serial", i, m, ga[m], wa[m])
			}
		}
		if len(w.Order) != len(g.Order) {
			t.Fatalf("request %d: order length differs", i)
		}
		for m := range w.Order {
			if w.Order[m] != g.Order[m] {
				t.Fatalf("request %d: order[%d] = %d concurrent, %d serial", i, m, g.Order[m], w.Order[m])
			}
		}
	}
}

// Coalescing must be invisible in the answers: every method and kind
// produces bit-identical partitions/orderings whether its spectrum came
// from a shared compute sized to the largest concurrent request or from
// a one-worker pool that serves each request in turn.
func TestConcurrentEqualsSerial(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	reqs := equivalenceRequests(h)

	ref := NewPool(Config{Workers: 1, QueueDepth: 16})
	ref.Start()
	want := runAll(t, ref, reqs)
	if err := ref.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	concurrent := NewPool(Config{Workers: len(reqs), QueueDepth: 16})
	concurrent.Start()
	defer concurrent.Shutdown(context.Background())
	got := runAll(t, concurrent, reqs)
	assertSameResults(t, want, got)

	// The partitioning-specific jobs share at most two eigensolves (one
	// compute plus one follow-up sized to the largest waiter); KP's
	// Frankle model is a single request, so exactly one more.
	if st := concurrent.Stats(); st.Computed < 2 || st.Computed > 3 {
		t.Errorf("computed %d decompositions, want 2 or 3 (at most two per clique model)", st.Computed)
	}
}

// Jobs over different netlists or clique models must not coalesce:
// each (fingerprint, model) pair gets its own eigensolve.
func TestIncompatibleJobsDoNotCoalesce(t *testing.T) {
	defer leakCheck(t)()
	hA := testNetlist(t)
	hB, err := spectral.GenerateBenchmark("prim1", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Config{Workers: 4, QueueDepth: 8})
	p.Start()
	defer p.Shutdown(context.Background())

	reqs := []Request{
		{Netlist: hA, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.MELO}},
		{Netlist: hA, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.KP}},
		{Netlist: hB, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.MELO}},
		{Netlist: hB, Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.KP}},
	}
	runAll(t, p, reqs)
	if st := p.Stats(); st.Computed != 4 {
		t.Errorf("computed = %d, want 4 distinct eigensolves", st.Computed)
	}
}

// Every kind is one spectral.Options (plus, for a delta job, an ECO
// base). The journal spec each kind writes is pinned byte for byte: an
// order job is MELO options whose spec carries only kind, d and scheme,
// the format of the order specs replayed in durable_test.go.
func TestJobSpecAndStatusPerKind(t *testing.T) {
	defer leakCheck(t)()
	base, d, mut := deltaBase(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) { return &Result{}, nil }
	p.Start()
	defer p.Shutdown(context.Background())

	cases := []struct {
		name   string
		req    Request
		spec   string // journal spec JSON, without the delta payload
		method string
		k, d   int
	}{
		{"order", Request{Netlist: base, Kind: KindOrder, Opts: spectral.Options{D: 5, Scheme: 2}},
			`{"kind":"order","d":5,"scheme":2}`, "melo", 0, 5},
		{"order ignores partition fields", Request{Netlist: base, Kind: KindOrder, Opts: spectral.Options{K: 4, Method: spectral.SB, D: 3, MinFrac: 0.3}},
			`{"kind":"order","d":3}`, "melo", 0, 3},
		{"partition", Request{Netlist: base, Opts: spectral.Options{K: 3, Method: spectral.SFC, D: 4, Refine: true}},
			`{"kind":"partition","method":"sfc","k":3,"d":4,"refine":true}`, "sfc", 3, 4},
		{"partition ignores delta fields", Request{Netlist: base, Opts: spectral.Options{K: 2}, BaseNetlist: base, Delta: d},
			`{"kind":"partition","method":"melo","k":2}`, "melo", 2, 0},
		{"delta", Request{Netlist: mut, Kind: KindDelta, Opts: spectral.Options{K: 2, Method: spectral.MELO, D: 6}, BaseNetlist: base, Delta: d},
			`{"kind":"delta","method":"melo","k":2,"d":6,"baseHash":"` + speccache.Fingerprint(base) + `"}`, "melo", 2, 6},
	}
	for _, c := range cases {
		j, err := p.Submit(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		waitDone(t, j)
		spec := specOf(j.req, j.shedFromD)
		if (spec.Delta != nil) != (c.req.Kind == KindDelta) {
			t.Errorf("%s: spec delta payload = %s, want one iff the job is a delta job", c.name, spec.Delta)
		}
		spec.Delta = nil
		if b, err := json.Marshal(spec); err != nil || string(b) != c.spec {
			t.Errorf("%s: journal spec = %s (err %v), want %s", c.name, b, err, c.spec)
		}
		st := j.Status()
		wantBase := ""
		if c.req.Kind == KindDelta {
			wantBase = speccache.Fingerprint(base)
		}
		if st.Kind != j.req.Kind || st.Method != c.method || st.K != c.k || st.D != c.d || st.BaseHash != wantBase {
			t.Errorf("%s: status kind=%s method=%q k=%d d=%d baseHash=%q, want %s %q %d %d %q",
				c.name, st.Kind, st.Method, st.K, st.D, st.BaseHash, j.req.Kind, c.method, c.k, c.d, wantBase)
		}
	}
}

// Order jobs keep their own admission rule rather than
// Options.Validate's: scheme 0..3 and d >= 0, with d beyond the module
// count accepted because MELO clamps it.
func TestOrderJobAdmission(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 4})
	p.Start()
	defer p.Shutdown(context.Background())

	big := h.NumModules() + 7
	j, err := p.Submit(Request{Netlist: h, Kind: KindOrder, Opts: spectral.Options{D: big}})
	if err != nil {
		t.Fatalf("order job with d = %d > n = %d rejected: %v", big, h.NumModules(), err)
	}
	if res := waitDone(t, j); len(res.Order) != h.NumModules() {
		t.Errorf("order has %d modules, want %d", len(res.Order), h.NumModules())
	}
	for _, o := range []spectral.Options{{Scheme: 4}, {D: -1}} {
		if _, err := p.Submit(Request{Netlist: h, Kind: KindOrder, Opts: o}); err == nil {
			t.Errorf("order job with %+v accepted", o)
		}
	}
}
