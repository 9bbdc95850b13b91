package chaos_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/resilience"
	"repro/internal/server"
)

// The workload vocabulary: every chaos run draws jobs from this fixed
// set of specs, so one control run per spec yields the expected result
// bytes for every seed. net 0 and 1 are small (ms-scale jobs); net 2
// is the heavy netlist whose d=30 solve keeps a worker busy long
// enough for crashes to land mid-job.
var specPool = []struct {
	key  string
	net  int
	body string // fragment spliced after the netlist field
}{
	{"melo-k2", 0, `"method":"melo","k":2`},
	{"melo-k4-d8", 0, `"method":"melo","k":4,"d":8`},
	{"sfc-k2", 0, `"method":"sfc","k":2`},
	{"sb-k2", 1, `"method":"sb","k":2`},
	{"order-d4", 1, `"kind":"order","d":4`},
	{"order-d6", 0, `"kind":"order","d":6`},
	{"heavy-melo-k2-d30", 2, `"method":"melo","k":2,"d":30`},
}

var netlistBodies = []string{
	`{"benchmark":"prim1","scale":0.06,"seed":1}`,
	`{"benchmark":"prim1","scale":0.05,"seed":2}`,
	`{"benchmark":"industry2","scale":0.06,"seed":1}`,
}

// harness is one daemon lifetime: pool + server + journal, HTTP-fronted.
type harness struct {
	pool *jobs.Pool
	srv  *server.Server
	ts   *httptest.Server
	jnl  *journal.Journal
}

// boot starts a daemon over dir the way cmd/spectrald does: open the
// journal, build the pool, replay, start, serve.
func boot(t *testing.T, dir string, opts journal.Options, cfg jobs.Config) *harness {
	t.Helper()
	jnl, rep, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatalf("journal must open over any damage, got: %v", err)
	}
	cfg.Journal = jnl
	pool := jobs.NewPool(cfg)
	srv := server.New(pool, server.Config{})
	if _, err := pool.Restore(rep); err != nil {
		t.Fatalf("restore: %v", err)
	}
	pool.Start()
	return &harness{pool: pool, srv: srv, ts: httptest.NewServer(srv), jnl: jnl}
}

func (h *harness) uploadNetlists(t *testing.T) []string {
	t.Helper()
	hashes := make([]string, len(netlistBodies))
	for i, body := range netlistBodies {
		resp, err := http.Post(h.ts.URL+"/v1/netlists", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Hash string `json:"hash"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Hash == "" {
			t.Fatalf("upload %d: no hash", i)
		}
		hashes[i] = st.Hash
	}
	return hashes
}

func (h *harness) submit(t *testing.T, body string) (jobs.Status, int) {
	t.Helper()
	resp, err := http.Post(h.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func (h *harness) await(t *testing.T, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(h.ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case jobs.Done, jobs.Failed, jobs.Cancelled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return jobs.Status{}
}

// normalize renders a result for byte-comparison across runs: cache
// hits depend on scheduling, everything else must match exactly.
func normalize(t *testing.T, res *jobs.Result) string {
	t.Helper()
	cp := *res
	cp.SpectrumCacheHit = false
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// controlResults runs every spec once on an uninterrupted, journal-free
// server and records the normalized result bytes per spec key.
func controlResults(t *testing.T) map[string]string {
	t.Helper()
	pool := jobs.NewPool(jobs.Config{Workers: 2, QueueDepth: 32})
	pool.Start()
	srv := server.New(pool, server.Config{})
	h := &harness{pool: pool, srv: srv, ts: httptest.NewServer(srv)}
	defer func() {
		h.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	}()
	hashes := h.uploadNetlists(t)
	control := make(map[string]string, len(specPool))
	for _, spec := range specPool {
		st, code := h.submit(t, fmt.Sprintf(`{"netlist":%q,%s}`, hashes[spec.net], spec.body))
		if code != http.StatusAccepted {
			t.Fatalf("control submit %s = %d", spec.key, code)
		}
		final := h.await(t, st.ID)
		if final.State != jobs.Done || final.Result == nil {
			t.Fatalf("control job %s: %+v", spec.key, final)
		}
		control[spec.key] = normalize(t, final.Result)
	}
	return control
}

// buildWorkload draws a seed-determined multiset of specs.
func buildWorkload(seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := 8 + rng.Intn(5)
	picks := make([]int, n)
	for i := range picks {
		picks[i] = rng.Intn(len(specPool))
	}
	return picks
}

// TestChaosCrashRestart is the headline invariant sweep: 20 seeded
// kill-and-restart cycles (5 under -short), each tearing or corrupting
// the journal tail differently, asserting that
//
//   - the daemon always boots over the damaged journal,
//   - no acknowledged job is silently lost,
//   - every surviving job finishes with results byte-identical to an
//     uninterrupted run,
//   - no job acquires duplicate terminal states on disk, and
//   - killing the pool with an expired context returns promptly.
func TestChaosCrashRestart(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	control := controlResults(t)
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			runCrashRestart(t, int64(seed), control)
		})
	}
}

func runCrashRestart(t *testing.T, seed int64, control map[string]string) {
	plan := chaos.NewPlan(seed)
	dir := t.TempDir()
	fs := chaos.NewFS()

	h1 := boot(t, dir, journal.Options{OpenFile: fs.Open, SegmentBytes: plan.SegmentBytes},
		jobs.Config{Workers: 2, QueueDepth: 32})
	hashes := h1.uploadNetlists(t)

	acked := make(map[string]string) // job ID -> spec key
	var order []string
	for _, pick := range buildWorkload(seed) {
		spec := specPool[pick]
		st, code := h1.submit(t, fmt.Sprintf(`{"netlist":%q,%s}`, hashes[spec.net], spec.body))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", spec.key, code)
		}
		acked[st.ID] = spec.key
		order = append(order, st.ID)
	}

	// Let the schedule's share of jobs finish, then kill the machine.
	waitUntil := time.Now().Add(60 * time.Second)
	for {
		stats := h1.pool.Stats()
		if stats.Done+stats.Failed+stats.Cancelled >= plan.CrashAfterFinishes {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatalf("never reached %d finished jobs", plan.CrashAfterFinishes)
		}
		time.Sleep(2 * time.Millisecond)
	}
	h1.ts.Close()
	if err := fs.Crash(plan.KeepExtra, plan.Garbage); err != nil {
		t.Fatalf("crash: %v", err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_ = h1.pool.Shutdown(expired)
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("shutdown with expired context took %v", d)
	}
	_ = h1.jnl.Close()

	// Reboot over the torn journal.
	h2 := boot(t, dir, journal.Options{}, jobs.Config{Workers: 2, QueueDepth: 32})
	defer func() {
		h2.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = h2.pool.Shutdown(ctx)
		_ = h2.jnl.Close()
	}()
	if len(plan.Garbage) > 0 {
		rs := h2.pool.RestoreStatsSnapshot()
		if rs == nil || rs.Replay.CorruptRecords+rs.Replay.TornSegments == 0 {
			t.Errorf("garbage at the tear point went undetected by replay")
		}
	}

	// Zero silently lost jobs: every 202-acked ID must exist and reach
	// Done with the control run's exact result bytes.
	for _, id := range order {
		key := acked[id]
		if _, ok := h2.pool.Job(id); !ok {
			t.Errorf("job %s (%s) lost after crash", id, key)
			continue
		}
		final := h2.await(t, id)
		if final.State != jobs.Done || final.Result == nil {
			t.Errorf("job %s (%s) finished %s (%s), want done", id, key, final.State, final.Error)
			continue
		}
		if got := normalize(t, final.Result); got != control[key] {
			t.Errorf("job %s (%s) result diverged after replay\n got %s\nwant %s", id, key, got, control[key])
		}
	}

	// No duplicate terminal states on disk: shut down cleanly and fold
	// the journal one more time.
	h2.ts.Close()
	ctx, cancel2 := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel2()
	if err := h2.pool.Shutdown(ctx); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}
	if err := h2.jnl.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	jnl3, rep3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	defer jnl3.Close()
	if rep3.Stats.DuplicateTerm != 0 {
		t.Errorf("journal holds %d duplicate terminal records:\n%s",
			rep3.Stats.DuplicateTerm, strings.Join(rep3.Stats.Warnings, "\n"))
	}
	for _, id := range order {
		jr := findJob(rep3, id)
		if jr == nil {
			t.Errorf("job %s missing from the final journal", id)
			continue
		}
		if !jr.Terminal() {
			t.Errorf("job %s non-terminal (%s) in the final journal", id, jr.State)
		}
	}
}

func findJob(rep *journal.ReplayResult, id string) *journal.JobReplay {
	for _, jr := range rep.Jobs {
		if jr.ID == id {
			return jr
		}
	}
	return nil
}

// TestChaosFaultsDeadlinesAndRecovery drives the remaining fault
// dimensions in one daemon lifetime: injected eigensolver faults (the
// resilience ladder must absorb them), clock-free deadline triggers
// (already-expired contexts at pickup), client cancels, slow 1-byte
// client reads, and a journal I/O outage with the documented
// compaction recovery — all without a panic, a lost job, or a
// duplicate terminal record.
func TestChaosFaultsDeadlinesAndRecovery(t *testing.T) {
	dir := t.TempDir()
	fs := chaos.NewFS()
	faults := &resilience.FaultPlan{FailAttempts: []int{1, 4}, StallAttempts: []int{6}}
	h := boot(t, dir, journal.Options{OpenFile: fs.Open},
		jobs.Config{
			Workers:     2,
			QueueDepth:  32,
			EigenPolicy: resilience.EigenPolicy{Faults: faults},
		})
	defer func() {
		h.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_ = h.pool.Shutdown(ctx)
		_ = h.jnl.Close()
	}()
	hashes := h.uploadNetlists(t)

	var terminalIDs []string

	// Solver faults: the ladder retries/degrades, the jobs still finish.
	for i := 0; i < 4; i++ {
		spec := specPool[i%3]
		st, code := h.submit(t, fmt.Sprintf(`{"netlist":%q,%s}`, hashes[spec.net], spec.body))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", spec.key, code)
		}
		final := h.await(t, st.ID)
		if final.State != jobs.Done {
			t.Errorf("job %s under solver faults finished %s (%s)", spec.key, final.State, final.Error)
		}
		terminalIDs = append(terminalIDs, st.ID)
	}
	if faults.Attempts() == 0 {
		t.Error("fault plan observed no solver attempts")
	}

	// Clock-free deadline: expired before pickup, must fail not hang.
	st, code := h.submit(t, fmt.Sprintf(`{"netlist":%q,"k":2,"timeout":"1ns"}`, hashes[0]))
	if code != http.StatusAccepted {
		t.Fatalf("deadline submit = %d", code)
	}
	if final := h.await(t, st.ID); final.State != jobs.Failed {
		t.Errorf("1ns-deadline job finished %s, want failed", final.State)
	}
	terminalIDs = append(terminalIDs, st.ID)

	// Client cancel: either honoured or beaten by completion, never stuck.
	st, code = h.submit(t, fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2,"d":30}`, hashes[2]))
	if code != http.StatusAccepted {
		t.Fatalf("cancel-target submit = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, h.ts.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if final := h.await(t, st.ID); final.State != jobs.Cancelled && final.State != jobs.Done {
		t.Errorf("cancelled job finished %s", final.State)
	}
	terminalIDs = append(terminalIDs, st.ID)

	// Slow client: drain a result one byte at a time.
	resp, err := http.Get(h.ts.URL + "/v1/jobs/" + terminalIDs[0] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var slow []byte
	buf := make([]byte, 1)
	for {
		n, err := resp.Body.Read(buf)
		slow = append(slow, buf[:n]...)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if !json.Valid(slow) {
		t.Errorf("slow read produced invalid JSON (%d bytes)", len(slow))
	}

	// Journal outage: durable acks must stop, not lie.
	fs.SetFailWrites(true)
	if _, code := h.submit(t, fmt.Sprintf(`{"netlist":%q,"k":2}`, hashes[0])); code != http.StatusServiceUnavailable {
		t.Errorf("submit during journal outage = %d, want 503", code)
	}
	if h.pool.Stats().JournalErrors == 0 {
		t.Error("journal outage left no error trace")
	}

	// Recovery: disk back + compaction rewrites onto a fresh segment.
	fs.SetFailWrites(false)
	if err := h.pool.CompactJournal(); err != nil {
		t.Fatalf("compaction after outage: %v", err)
	}
	st, code = h.submit(t, fmt.Sprintf(`{"netlist":%q,"k":2}`, hashes[0]))
	if code != http.StatusAccepted {
		t.Fatalf("submit after recovery = %d, want 202", code)
	}
	if final := h.await(t, st.ID); final.State != jobs.Done {
		t.Errorf("post-recovery job finished %s", final.State)
	}
	terminalIDs = append(terminalIDs, st.ID)

	if h.pool.Stats().Panics != 0 {
		t.Errorf("pool isolated %d panics during chaos", h.pool.Stats().Panics)
	}

	// Clean shutdown, then verify the on-disk fold one last time.
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := h.pool.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := h.jnl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	jnl2, rep2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	defer jnl2.Close()
	if rep2.Stats.DuplicateTerm != 0 {
		t.Errorf("duplicate terminal records: %d", rep2.Stats.DuplicateTerm)
	}
	for _, id := range terminalIDs {
		jr := findJob(rep2, id)
		if jr == nil || !jr.Terminal() {
			t.Errorf("job %s not terminal in the journal after a clean shutdown", id)
		}
	}
}
