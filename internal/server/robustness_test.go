package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/journal"
)

// faultFile wraps a journal segment file and fails writes and syncs
// while armed, simulating a full or failing disk under the journal.
type faultFile struct {
	f    journal.File
	fail *atomic.Bool
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.fail.Load() {
		return 0, errors.New("injected write error")
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if ff.fail.Load() {
		return errors.New("injected sync error")
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// newJournaledServer boots a server over a pool backed by a journal in
// dir, optionally wrapping segment files so tests can inject faults.
func newJournaledServer(t *testing.T, dir string, fail *atomic.Bool, cfg jobs.Config) (*Server, *jobs.Pool, *httptest.Server) {
	t.Helper()
	opts := journal.Options{}
	if fail != nil {
		opts.OpenFile = func(path string) (journal.File, error) {
			f, err := journal.DefaultOpenFile(path)
			if err != nil {
				return nil, err
			}
			return &faultFile{f: f, fail: fail}, nil
		}
	}
	jnl, rep, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jnl
	pool := jobs.NewPool(cfg)
	srv := New(pool, Config{})
	if _, err := pool.Restore(rep); err != nil {
		t.Fatal(err)
	}
	pool.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
		_ = jnl.Close()
	})
	return srv, pool, ts
}

func TestTimeoutValidation(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	hash := uploadNetlist(t, ts)
	for _, c := range []struct {
		body string
		want int
	}{
		{fmt.Sprintf(`{"netlist":%q,"k":2,"timeout":"banana"}`, hash), http.StatusBadRequest},
		{fmt.Sprintf(`{"netlist":%q,"k":2,"timeout":"-5s"}`, hash), http.StatusBadRequest},
		{fmt.Sprintf(`{"netlist":%q,"k":2,"timeout":"45s"}`, hash), http.StatusAccepted},
	} {
		if _, code := submitJob(t, ts, c.body); code != c.want {
			t.Errorf("submit %s: code = %d, want %d", c.body, code, c.want)
		}
	}
}

func TestTimeoutFromBodyAndHeader(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	hash := uploadNetlist(t, ts)

	// Header alone sets the deadline.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"netlist":%q,"k":2}`, hash)))
	req.Header.Set("Spectrald-Timeout", "90s")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	decode(t, resp, &st)
	if st.TimeoutSeconds != 90 {
		t.Errorf("header timeout = %gs, want 90s", st.TimeoutSeconds)
	}

	// Body field wins over the header.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"netlist":%q,"k":2,"timeout":"30s"}`, hash)))
	req.Header.Set("Spectrald-Timeout", "90s")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &st)
	if st.TimeoutSeconds != 30 {
		t.Errorf("body timeout = %gs, want 30s (body wins over header)", st.TimeoutSeconds)
	}
	awaitJob(t, ts, st.ID)
}

// A 429 carries a Retry-After derived from live queue state, not the
// old hard-coded "1" — and the JSON body repeats it for clients that
// cannot reach headers.
func TestDerivedRetryAfter(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 1})
	resp, err := http.Post(ts.URL+"/v1/netlists", "application/json",
		strings.NewReader(`{"benchmark":"industry2","scale":0.06}`))
	if err != nil {
		t.Fatal(err)
	}
	var stored jobs.NetlistInfo
	decode(t, resp, &stored)
	body := fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2,"d":30}`, stored.Hash)

	var ids []string
	for i := 0; i < 50; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusAccepted {
			var st jobs.Status
			decode(t, resp, &st)
			ids = append(ids, st.ID)
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit %d: unexpected code %d", i, resp.StatusCode)
		}
		header := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(header)
		if err != nil || secs < 1 {
			t.Errorf("Retry-After = %q, want integer >= 1", header)
		}
		var out struct {
			RetryAfterSeconds int `json:"retryAfterSeconds"`
		}
		decode(t, resp, &out)
		if out.RetryAfterSeconds != secs {
			t.Errorf("body retryAfterSeconds = %d, header = %d", out.RetryAfterSeconds, secs)
		}
		for _, id := range ids {
			awaitJob(t, ts, id)
		}
		return
	}
	t.Fatal("never saw 429 despite queue depth 1")
}

// Upload + submit + finish on a journaled server, then a cold restart
// over the same directory: the netlist hash and the finished job (with
// its result) must both be served again.
func TestJournalRoundTripOverHTTP(t *testing.T) {
	dir := t.TempDir()
	_, pool1, ts1 := newJournaledServer(t, dir, nil, jobs.Config{Workers: 2, QueueDepth: 8})

	hash := uploadNetlist(t, ts1)
	st, code := submitJob(t, ts1, fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2}`, hash))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := awaitJob(t, ts1, st.ID)
	if final.State != jobs.Done || final.Result == nil {
		t.Fatalf("job finished %s: %+v", final.State, final)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pool1.Journal().Close(); err != nil {
		t.Fatal(err)
	}

	_, _, ts2 := newJournaledServer(t, dir, nil, jobs.Config{Workers: 2, QueueDepth: 8})
	resp, err := http.Get(ts2.URL + "/v1/netlists/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("restored netlist get = %d, want 200", resp.StatusCode)
	}
	restored := awaitJob(t, ts2, st.ID)
	if restored.State != jobs.Done || restored.Result == nil {
		t.Fatalf("restored job: %+v", restored)
	}
	if !restored.Restored {
		t.Error("restored job not flagged as restored")
	}
	if restored.Result.NetCut != final.Result.NetCut || restored.Result.K != final.Result.K {
		t.Errorf("restored result = %+v, want %+v", restored.Result, final.Result)
	}
}

// When the journal cannot make a submission durable, the server must
// refuse it with 503 rather than acknowledge a job that a crash would
// silently lose.
func TestJournalUnavailable503(t *testing.T) {
	var fail atomic.Bool
	_, pool, ts := newJournaledServer(t, t.TempDir(), &fail, jobs.Config{Workers: 1, QueueDepth: 4})
	hash := uploadNetlist(t, ts)

	fail.Store(true)
	// An already-journaled netlist dedups to a no-op append, so its
	// re-upload still succeeds while the disk is down...
	resp, err := http.Post(ts.URL+"/v1/netlists", "text/plain", strings.NewReader(netlistText(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("re-upload of journaled netlist = %d, want 201", resp.StatusCode)
	}
	// ...but a new netlist needs a durable write, and must be refused.
	resp, err = http.Post(ts.URL+"/v1/netlists", "application/json",
		strings.NewReader(`{"benchmark":"prim1","scale":0.08,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new upload with failed journal = %d, want 503", resp.StatusCode)
	}
	if got := listNetlists(t, ts.URL); len(got) != 1 || got[0] != hash {
		t.Errorf("store lists %v after a refused upload, want only %s", got, hash)
	}
	// So must a submission: a job the journal cannot record would be
	// silently lost by a crash, so the server must never ack it.
	_, code := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"k":2}`, hash))
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit with failed journal = %d, want 503", code)
	}
	if got := pool.Stats().Pending + pool.Stats().Running; got != 0 {
		t.Errorf("refused job still entered the pool: %d active", got)
	}
}
