package jobs

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	spectral "repro"
	"repro/internal/journal"
	"repro/internal/speccache"
)

// openJournal opens (or reopens) a journal in dir and fails the test on
// error.
func openJournal(t *testing.T, dir string) (*journal.Journal, *journal.ReplayResult) {
	t.Helper()
	jnl, rep, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jnl, rep
}

// The core crash-safety contract: a pool journaling to disk can be
// killed and rebuilt, with finished jobs served from their recorded
// results and unfinished jobs re-enqueued — none silently lost.
func TestJournalRestoreRoundTrip(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)

	p1 := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl})
	want := &Result{Order: []int{2, 0, 1}, SpectrumCacheHit: false}
	release := make(chan struct{})
	p1.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		select {
		case <-release:
			return want, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p1.Start()

	finished, err := p1.Submit(Request{Netlist: h, Kind: KindOrder, Opts: spectral.Options{D: 5}})
	if err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	waitDone(t, finished)

	running, err := p1.Submit(Request{Netlist: h, Kind: KindOrder, Opts: spectral.Options{D: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for running.State() != Running {
		time.Sleep(time.Millisecond)
	}
	queued, err := p1.Submit(Request{Netlist: h, Kind: KindPartition, Opts: optsMELO(2)})
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": the journal's file handle dies first (as it would on
	// SIGKILL), so nothing the dying pool writes afterwards lands.
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p1.Shutdown(expired)

	// Restart: replay the journal into a fresh pool.
	jnl2, rep := openJournal(t, dir)
	defer jnl2.Close()
	if rep.Stats.Records == 0 {
		t.Fatal("replay saw no records")
	}
	p2 := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl2})
	p2.runFn = func(ctx context.Context, j *Job) (*Result, error) { return want, nil }
	stats, err := p2.Restore(rep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecoveredTerminal != 1 || stats.Reenqueued != 2 || stats.FailedOnReplay != 0 {
		t.Fatalf("restore stats = %+v, want 1 recovered, 2 re-enqueued, 0 failed", stats)
	}
	if stats.Netlists != 1 {
		t.Fatalf("restored %d netlists, want 1", stats.Netlists)
	}

	// The finished job's result survives byte-for-byte without re-running.
	j1, ok := p2.Job(finished.ID())
	if !ok {
		t.Fatalf("job %s lost across restart", finished.ID())
	}
	if j1.State() != Done {
		t.Fatalf("job %s: state %s after replay, want done", j1.ID(), j1.State())
	}
	res, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("replayed result = %+v, want %+v", res, want)
	}
	if !j1.Status().Restored {
		t.Error("replayed job not marked restored")
	}

	// The interrupted jobs run again to completion.
	p2.Start()
	for _, id := range []string{running.ID(), queued.ID()} {
		j, ok := p2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		waitDone(t, j)
	}

	// IDs keep counting past the replayed maximum — no reuse.
	fresh, err := p2.Submit(Request{Netlist: h, Kind: KindOrder})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() <= queued.ID() {
		t.Errorf("fresh job ID %s does not continue past replayed %s", fresh.ID(), queued.ID())
	}
	waitDone(t, fresh)
	if err := p2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func optsMELO(k int) spectral.Options { return spectral.Options{K: k, Method: spectral.MELO} }

// A job whose netlist record was lost (e.g. to a corrupt segment) must
// be failed with an explanatory error, never silently dropped.
func TestRestoreFailsJobWithLostNetlist(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	err := jnl.AppendDurable(journal.Record{
		Type: journal.TypeSubmit, ID: "job-000007", Hash: "sha256:missing",
		Spec: &journal.JobSpec{Kind: string(KindOrder), Options: spectral.Options{D: 5}}, UnixNS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, rep := openJournal(t, dir)
	defer jnl2.Close()
	p := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl2})
	stats, err := p.Restore(rep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FailedOnReplay != 1 || stats.Reenqueued != 0 {
		t.Fatalf("restore stats = %+v, want exactly 1 failed", stats)
	}
	j, ok := p.Job("job-000007")
	if !ok {
		t.Fatal("job with lost netlist was dropped")
	}
	if j.State() != Failed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	if _, err := j.Result(); err == nil || !strings.Contains(err.Error(), "not recoverable") {
		t.Errorf("error = %v, want a 'not recoverable' explanation", err)
	}
	p.Start()
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A cancel requested before the crash is honoured on replay instead of
// re-running work the client abandoned.
func TestRestoreHonoursPendingCancel(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)

	p1 := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl})
	block := make(chan struct{})
	p1.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		<-block
		return nil, ctx.Err()
	}
	p1.Start()
	hog, err := p1.Submit(Request{Netlist: h, Kind: KindOrder})
	if err != nil {
		t.Fatal(err)
	}
	for hog.State() != Running {
		time.Sleep(time.Millisecond)
	}
	victim, err := p1.Submit(Request{Netlist: h, Kind: KindOrder, Opts: spectral.Options{D: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Cancel(victim.ID()) {
		t.Fatal("cancel returned false")
	}
	// Crash before the worker retires the cancelled job. Sync first so
	// the buffered cancel record reaches disk (a lost cancel record is
	// legal — it just re-runs the job — but this test pins the honoured
	// path).
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	close(block)
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
	if stats.CancelledOnReplay != 1 {
		t.Fatalf("restore stats = %+v, want 1 cancelled on replay", stats)
	}
	j, ok := p2.Job(victim.ID())
	if !ok {
		t.Fatal("cancelled job lost across restart")
	}
	if j.State() != Cancelled {
		t.Errorf("state = %s, want cancelled", j.State())
	}
	p2.Start()
	if err := p2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Replay must not charge pre-crash queue wait against MaxQueueWait: a
// re-enqueued job without a request deadline (whose created time keeps
// its original submission timestamp) still gets a fresh queue-wait
// clock, so downtime longer than the bound does not fail every
// replayed job at pickup.
func TestRestoreReanchorsQueueWaitClock(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)

	// Journal a no-deadline job as a daemon that crashed an hour ago
	// would have left it: netlist body plus a submit record, no finish.
	var buf bytes.Buffer
	if err := spectral.SaveNetlist(&buf, "", h); err != nil {
		t.Fatal(err)
	}
	hash := speccache.Fingerprint(h)
	old := time.Now().Add(-time.Hour)
	if err := jnl.AppendNetlist(hash, "", func() ([]byte, error) { return buf.Bytes(), nil }, old.UnixNano()); err != nil {
		t.Fatal(err)
	}
	err := jnl.AppendDurable(journal.Record{
		Type: journal.TypeSubmit, ID: "job-000001", Hash: hash,
		Spec: &journal.JobSpec{Kind: string(KindOrder), Options: spectral.Options{D: 3}}, UnixNS: old.UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, rep := openJournal(t, dir)
	defer jnl2.Close()
	p := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl2, MaxQueueWait: time.Minute})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) { return &Result{}, nil }
	stats, err := p.Restore(rep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reenqueued != 1 {
		t.Fatalf("restore stats = %+v, want 1 re-enqueued", stats)
	}
	p.Start()
	j, ok := p.Job("job-000001")
	if !ok {
		t.Fatal("replayed job lost")
	}
	waitDone(t, j)
	if st := j.State(); st != Done {
		t.Fatalf("replayed no-deadline job state = %s, want done (max-queue-wait must not charge downtime)", st)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// deniableFile fails writes while armed, letting a test fail the
// journal at a precise moment.
type deniableFile struct {
	f    journal.File
	deny *atomic.Bool
}

func (f *deniableFile) Write(p []byte) (int, error) {
	if f.deny.Load() {
		return 0, errors.New("injected write error")
	}
	return f.f.Write(p)
}
func (f *deniableFile) Sync() error  { return f.f.Sync() }
func (f *deniableFile) Close() error { return f.f.Close() }

// A submission whose journal append fails must be retracted completely:
// the client gets an error, and the job the client was told failed is
// neither listed by the jobs API nor carried into compaction snapshots.
func TestSubmitJournalFailureRetractsJob(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	dir := t.TempDir()
	var deny atomic.Bool
	jnl, _, err := journal.Open(dir, journal.Options{
		OpenFile: func(path string) (journal.File, error) {
			f, err := journal.DefaultOpenFile(path)
			if err != nil {
				return nil, err
			}
			return &deniableFile{f: f, deny: &deny}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	p := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) { return &Result{}, nil }
	p.Start()
	defer p.Shutdown(context.Background())

	deny.Store(true)
	if _, err := p.Submit(Request{Netlist: h, Kind: KindOrder}); !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with failing journal: err = %v, want ErrJournal", err)
	}
	if jobs := p.Jobs(); len(jobs) != 0 {
		t.Fatalf("unacknowledged job still listed: %+v", jobs)
	}
	if st := p.Stats(); st.Submitted != 0 {
		t.Errorf("stats count a retracted submission: %+v", st)
	}

	// Recovery: compaction rewrites the journal from live state (which no
	// longer includes the retracted job) and clears the sticky failure.
	deny.Store(false)
	if err := p.CompactJournal(); err != nil {
		t.Fatalf("compaction recovery: %v", err)
	}
	j, err := p.Submit(Request{Netlist: h, Kind: KindOrder})
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	waitDone(t, j)
}

// Satellite: Shutdown must drain the queue even when its context is
// already expired on entry — queued jobs are cancelled immediately
// rather than orphaned behind workers stuck in long solves.
func TestShutdownWithExpiredContextDrainsQueue(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{}, 1)
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	p.Start()
	inflight, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var queued []*Job
	for i := 0; i < 5; i++ {
		j, err := p.Submit(Request{Netlist: h})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel() // dead before Shutdown even starts
	begin := time.Now()
	if err := p.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Errorf("shutdown err = %v, want context.Canceled", err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Errorf("shutdown with dead context took %v, want prompt return", took)
	}
	for i, j := range append(queued, inflight) {
		if st := j.State(); st != Cancelled {
			t.Errorf("job %d: state %s, want cancelled", i, st)
		}
	}
}

// Satellite: the Retry-After formula — queued work ahead of the client
// in worker-widths times the median recent job duration, clamped to
// [1s, 60s], with 1s as the cold-start fallback (the old hard-coded
// behaviour).
func TestRetryAfterFormula(t *testing.T) {
	cases := []struct {
		depth, workers int
		p50            time.Duration
		want           time.Duration
	}{
		{0, 4, 0, time.Second},                      // cold start: p50 fallback reproduces "Retry-After: 1"
		{0, 4, 3 * time.Second, 3 * time.Second},    // empty queue: one worker-width
		{7, 4, 2 * time.Second, 4 * time.Second},    // ceil(8/4)=2 widths
		{8, 4, 2 * time.Second, 6 * time.Second},    // ceil(9/4)=3 widths
		{0, 1, 100 * time.Millisecond, time.Second}, // clamped up to 1s
		{100, 2, 2 * time.Second, time.Minute},      // clamped down to 60s
		{3, 0, time.Second, 4 * time.Second},        // workers normalised to 1
	}
	for _, c := range cases {
		if got := RetryAfter(c.depth, c.workers, c.p50); got != c.want {
			t.Errorf("RetryAfter(%d, %d, %v) = %v, want %v", c.depth, c.workers, c.p50, got, c.want)
		}
	}
}

// A request deadline that expires fails the job (the daemon ran out of
// time) — it is not spelled as a client cancellation.
func TestDeadlineExceededFailsJob(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	p.Start()
	defer p.Shutdown(context.Background())

	j, err := p.Submit(Request{Netlist: h, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != Failed {
		t.Fatalf("state = %s, want failed (deadline is not a cancellation)", j.State())
	}
	if _, err := j.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("result err = %v, want context.DeadlineExceeded", err)
	}
	if st := j.Status(); st.TimeoutSeconds == 0 {
		t.Error("status does not echo the request timeout")
	}
}

// The deadline covers queue wait: a job whose deadline expires while
// still queued fails at pickup without running.
func TestDeadlineCoversQueueWait(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	ran := make(chan string, 8)
	release := make(chan struct{})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		ran <- j.ID()
		select {
		case <-release:
			return &Result{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p.Start()
	defer p.Shutdown(context.Background())

	hog, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	<-ran
	starved, err := p.Submit(Request{Netlist: h, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the queued job's deadline lapse
	close(release)
	waitDone(t, hog)
	<-starved.Done()
	if starved.State() != Failed {
		t.Fatalf("state = %s, want failed", starved.State())
	}
	if _, err := starved.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("result err = %v, want context.DeadlineExceeded", err)
	}
	select {
	case id := <-ran:
		if id == starved.ID() {
			t.Error("deadline-expired job ran anyway")
		}
	default:
	}
}

// MaxQueueWait bounds how stale a job may be at pickup.
func TestMaxQueueWaitFailsStaleJob(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8, MaxQueueWait: time.Nanosecond})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) { return &Result{}, nil }
	p.Start()
	defer p.Shutdown(context.Background())

	j, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != Failed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	if _, err := j.Result(); err == nil || !strings.Contains(err.Error(), "max queue wait") {
		t.Errorf("error = %v, want a max-queue-wait explanation", err)
	}
}

// A panicking job fails in isolation: the worker survives and keeps
// serving, and the panic is counted.
func TestPanicIsolation(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 8})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		if j.ID() == "job-000001" {
			panic("kernel exploded")
		}
		return &Result{}, nil
	}
	p.Start()
	defer p.Shutdown(context.Background())

	bad, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	good, err := p.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if bad.State() != Failed {
		t.Fatalf("panicked job state = %s, want failed", bad.State())
	}
	if _, err := bad.Result(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error = %v, want a panic attribution", err)
	}
	waitDone(t, good) // the same (sole) worker must still be alive
	if st := p.Stats(); st.Panics != 1 {
		t.Errorf("stats.Panics = %d, want 1", st.Panics)
	}
}

// shedTestPool builds a 1-worker pool whose worker parks on the first
// job, so queue depth is fully controlled by Submit calls.
func shedTestPool(t *testing.T, policy ShedPolicy, depth int) (*Pool, chan struct{}) {
	t.Helper()
	p := NewPool(Config{Workers: 1, QueueDepth: depth, ShedPolicy: policy})
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
	return p, release
}

// ShedDegrade admits jobs at a smaller d after sustained pressure, and
// recovers once the queue drains below the low watermark.
func TestShedDegradeUnderSustainedPressure(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p, release := shedTestPool(t, ShedDegrade, 16)
	defer p.Shutdown(context.Background())

	submitOrder := func() *Job {
		t.Helper()
		j, err := p.Submit(Request{Netlist: h, Kind: KindOrder}) // d=0: the default 10
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	hog := submitOrder()
	for hog.State() != Running {
		time.Sleep(time.Millisecond)
	}
	// QueueDepth 16 → hi watermark 12. Fill to the watermark, then keep
	// submitting: the 4th consecutive high observation trips the shedder.
	for i := 0; i < 12; i++ {
		submitOrder()
	}
	var last *Job
	for i := 0; i < 4; i++ {
		last = submitOrder()
	}
	st := last.Status()
	if st.ShedFromD != 10 || st.D != 5 {
		t.Fatalf("job under pressure: d=%d shedFromD=%d, want d=5 shed from 10", st.D, st.ShedFromD)
	}
	if sh := p.Stats().Shed; !sh.Active || sh.Degraded != 1 || sh.Trips != 1 {
		t.Errorf("shed stats = %+v, want active with 1 degraded, 1 trip", sh)
	}

	// Drain below the low watermark (4) and confirm recovery. After the
	// close every job (including the recovery probe below) returns
	// instantly.
	close(release)
	for p.Stats().QueueDepth > 2 {
		time.Sleep(time.Millisecond)
	}
	calm, err := p.Submit(Request{Netlist: h, Kind: KindOrder})
	if err != nil {
		t.Fatal(err)
	}
	if st := calm.Status(); st.ShedFromD != 0 {
		t.Errorf("post-recovery job still shed (from d=%d)", st.ShedFromD)
	}
	if sh := p.Stats().Shed; sh.Active {
		t.Error("shedder still active after the queue drained")
	}
}

// ShedDegrade sheds only jobs whose decomposition shrinks with d, and
// labels and counts only those: a method with a fixed-size spectrum (SB,
// KP, SFC, HL) or none (RSB) is admitted exactly as submitted.
func TestShedDegradeOnlyShedsMethodsThatConsumeD(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p, release := shedTestPool(t, ShedDegrade, 64)
	defer func() {
		close(release)
		p.Shutdown(context.Background())
	}()
	submit := func(req Request) *Job {
		t.Helper()
		req.Netlist = h
		j, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for !p.Stats().Shed.Active {
		submit(Request{Kind: KindOrder})
	}
	before := p.Stats().Shed.Degraded

	part := func(m spectral.Method, k, d int) Request {
		return Request{Opts: spectral.Options{Method: m, K: k, D: d}}
	}
	cases := []struct {
		name         string
		req          Request
		d, shedFromD int
	}{
		{"order default d", Request{Kind: KindOrder}, 5, 10},
		{"order d=3", Request{Kind: KindOrder, Opts: spectral.Options{D: 3}}, 2, 3},
		{"melo default d", part(spectral.MELO, 2, 0), 5, 10},
		{"vkp d=8", part(spectral.VKP, 3, 8), 4, 8},
		{"melo at the floor", part(spectral.MELO, 2, 2), 2, 0},
		{"sb", part(spectral.SB, 2, 0), 0, 0},
		{"kp", part(spectral.KP, 2, 0), 0, 0},
		{"sfc", part(spectral.SFC, 2, 0), 0, 0},
		{"hl", part(spectral.HL, 4, 0), 0, 0},
		{"rsb", part(spectral.RSB, 2, 0), 0, 0},
	}
	var shed uint64
	for _, c := range cases {
		st := submit(c.req).Status()
		if st.D != c.d || st.ShedFromD != c.shedFromD {
			t.Errorf("%s: d=%d shedFromD=%d, want d=%d shedFromD=%d", c.name, st.D, st.ShedFromD, c.d, c.shedFromD)
		}
		if c.shedFromD != 0 {
			shed++
		}
	}
	if sh := p.Stats().Shed; !sh.Active || sh.Degraded-before != shed {
		t.Errorf("shed stats = %+v, want still active with %d more degraded", sh, shed)
	}
}

// ShedReject refuses new work under sustained pressure before the queue
// is physically full.
func TestShedRejectUnderSustainedPressure(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	p, release := shedTestPool(t, ShedReject, 16)
	defer func() {
		close(release)
		p.Shutdown(context.Background())
	}()

	hog, err := p.Submit(Request{Netlist: h, Kind: KindOrder})
	if err != nil {
		t.Fatal(err)
	}
	for hog.State() != Running {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 15; i++ {
		if _, err := p.Submit(Request{Netlist: h, Kind: KindOrder}); err != nil {
			// The shedder must trip on the 4th consecutive observation at
			// or above the high watermark (12): fills 0..11 observe depths
			// 0..11, so rejections may start at fill 15 the earliest.
			if i < 15 && errors.Is(err, ErrQueueFull) && p.Stats().QueueDepth < 16 {
				// Rejected before physical capacity: that is the point.
				if sh := p.Stats().Shed; sh.Rejected == 0 {
					t.Errorf("rejected without shed accounting: %+v", sh)
				}
				return
			}
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// Queue now holds 15 (< capacity 16) and the shedder observed depths
	// 12, 13, 14 — three highs. The next submission is the fourth: it
	// must be shed-rejected even though one slot remains.
	if _, err := p.Submit(Request{Netlist: h, Kind: KindOrder}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit under sustained pressure: err = %v, want ErrQueueFull", err)
	}
	st := p.Stats()
	if st.QueueDepth >= st.QueueCapacity {
		t.Error("queue filled to capacity; shed-reject never fired early")
	}
	if st.Shed.Rejected != 1 || !st.Shed.Active {
		t.Errorf("shed stats = %+v, want 1 rejection while active", st.Shed)
	}
	if st.RetryAfterSeconds < 1 {
		t.Errorf("RetryAfterSeconds = %v, want >= 1", st.RetryAfterSeconds)
	}
}

// The journal log compacts once enough terminal records accumulate, and
// a restore from the compacted journal still sees every job.
func TestAutoCompactionPreservesState(t *testing.T) {
	defer leakCheck(t)()
	h := testNetlist(t)
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	p := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl, CompactEvery: 4})
	p.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		return &Result{NetCut: len(j.ID())}, nil
	}
	p.Start()
	var ids []string
	for i := 0; i < 10; i++ {
		j, err := p.Submit(Request{Netlist: h, Kind: KindOrder})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := jnl.Stats(); st.Compactions == 0 {
		t.Errorf("journal stats = %+v, want at least one compaction", st)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, rep := openJournal(t, dir)
	defer jnl2.Close()
	p2 := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl2})
	stats, err := p2.Restore(rep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecoveredTerminal != len(ids) || stats.Reenqueued != 0 {
		t.Fatalf("restore stats = %+v, want all %d jobs terminal", stats, len(ids))
	}
	for _, id := range ids {
		j, ok := p2.Job(id)
		if !ok {
			t.Fatalf("job %s lost by compaction", id)
		}
		if res, err := j.Result(); err != nil || res.NetCut != len(id) {
			t.Errorf("job %s: result %+v err %v after compaction", id, res, err)
		}
	}
	p2.Start()
	if err := p2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
