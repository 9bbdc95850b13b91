package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spectral "repro"
	"repro/internal/jobs"
)

func newTestServer(t *testing.T, cfg jobs.Config) (*Server, *jobs.Pool, *httptest.Server) {
	t.Helper()
	pool := jobs.NewPool(cfg)
	pool.Start()
	srv := New(pool, Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = pool.Shutdown(ctx)
	})
	return srv, pool, ts
}

func decode(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

func netlistText(t *testing.T) string {
	t.Helper()
	h, err := spectral.GenerateBenchmark("prim1", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spectral.SaveNetlist(&buf, "prim1-small", h); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func uploadNetlist(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/netlists", "text/plain", strings.NewReader(netlistText(t)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var st jobs.NetlistInfo
	decode(t, resp, &st)
	if st.Hash == "" || st.Modules == 0 {
		t.Fatalf("stored = %+v", st)
	}
	return st.Hash
}

func submitJob(t *testing.T, ts *httptest.Server, body string) (jobs.Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if resp.StatusCode == http.StatusAccepted {
		decode(t, resp, &st)
	} else {
		resp.Body.Close()
	}
	return st, resp.StatusCode
}

func awaitJob(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobs.Status
		decode(t, resp, &st)
		switch st.State {
		case jobs.Done, jobs.Failed, jobs.Cancelled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobs.Status{}
}

func TestHealthz(t *testing.T) {
	srv, _, ts := newTestServer(t, jobs.Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	srv.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// The whole happy path over HTTP: upload, submit, poll, fetch result —
// then a second job with different K that must hit the spectrum cache,
// visible both in the result payload and on /metrics.
func TestSubmitPollResultAndCacheHit(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 2, QueueDepth: 8})
	hash := uploadNetlist(t, ts)

	st, code := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2}`, hash))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := awaitJob(t, ts, st.ID)
	if final.State != jobs.Done || final.Result == nil {
		t.Fatalf("job finished %s: %+v", final.State, final)
	}
	if final.Result.K != 2 || len(final.Result.Assign) == 0 {
		t.Errorf("result = %+v", final.Result)
	}
	if final.Result.SpectrumCacheHit {
		t.Error("first job reported a cache hit")
	}

	// Same netlist, different method and K: one eigensolve total.
	st2, code := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"method":"sfc","k":4}`, hash))
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	if final2 := awaitJob(t, ts, st2.ID); final2.Result == nil || !final2.Result.SpectrumCacheHit {
		t.Errorf("second job should hit the spectrum cache: %+v", final2.Result)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	metrics := body.String()
	for _, want := range []string{
		"spectrald_spectrum_cache_hits_total 1",
		"spectrald_spectrum_cache_misses_total 1",
		`spectrald_jobs{state="done"} 2`,
		`spectrald_stage_seconds_count{stage="solve"} 2`,
		"spectrald_netlists_stored 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q\n%s", want, metrics)
		}
	}

	// Result endpoint.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		State  jobs.State   `json:"state"`
		Result *jobs.Result `json:"result"`
	}
	decode(t, resp, &res)
	if res.State != jobs.Done || res.Result == nil || res.Result.NetCut < 0 {
		t.Errorf("result endpoint = %+v", res)
	}
}

func TestOrderJob(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	hash := uploadNetlist(t, ts)
	st, code := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"kind":"order","d":5}`, hash))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := awaitJob(t, ts, st.ID)
	if final.State != jobs.Done || final.Result == nil || len(final.Result.Order) == 0 {
		t.Fatalf("order job: %+v", final)
	}
}

func TestGenerateBenchmarkUpload(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/netlists", "application/json",
		strings.NewReader(`{"benchmark":"prim1","scale":0.06,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate = %d", resp.StatusCode)
	}
	var st jobs.NetlistInfo
	decode(t, resp, &st)
	if st.Name != "prim1" || st.Modules == 0 {
		t.Errorf("stored = %+v", st)
	}
	// Distinct seed, distinct instance, distinct hash.
	resp, err = http.Post(ts.URL+"/v1/netlists", "application/json",
		strings.NewReader(`{"benchmark":"prim1","scale":0.06,"seed":8}`))
	if err != nil {
		t.Fatal(err)
	}
	var st2 jobs.NetlistInfo
	decode(t, resp, &st2)
	if st2.Hash == st.Hash {
		t.Error("different seeds produced the same content hash")
	}
}

func TestBadRequests(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1})
	hash := uploadNetlist(t, ts)
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"netlist":"sha256:nope"}`, http.StatusNotFound},
		{fmt.Sprintf(`{"netlist":%q,"method":"quantum"}`, hash), http.StatusBadRequest},
		{fmt.Sprintf(`{"netlist":%q,"kind":"juggle"}`, hash), http.StatusBadRequest},
		{fmt.Sprintf(`{"netlist":%q,"k":1}`, hash), http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, code := submitJob(t, ts, c.body); code != c.want {
			t.Errorf("submit %s: code = %d, want %d", c.body, code, c.want)
		}
	}
	resp, _ := http.Get(ts.URL + "/v1/jobs/job-999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/v1/netlists", "text/plain", strings.NewReader("net a m1\n"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad netlist upload = %d, want 400", resp.StatusCode)
	}
}

// A full queue surfaces as HTTP 429 with Retry-After.
func TestBackpressure429(t *testing.T) {
	_, pool, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 1})
	// Occupy the single worker with a genuinely slow job — a ~750
	// module netlist with a 30-eigenvector solve — so later submissions
	// pile into the depth-1 queue.
	resp, err := http.Post(ts.URL+"/v1/netlists", "application/json",
		strings.NewReader(`{"benchmark":"industry2","scale":0.06}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate = %d", resp.StatusCode)
	}
	var stored jobs.NetlistInfo
	decode(t, resp, &stored)
	body := fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2,"d":30}`, stored.Hash)
	var ids []string
	got429 := false
	for i := 0; i < 50; i++ {
		st, code := submitJob(t, ts, body)
		switch code {
		case http.StatusAccepted:
			ids = append(ids, st.ID)
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("submit %d: unexpected code %d", i, code)
		}
		if got429 {
			break
		}
	}
	if !got429 {
		t.Fatal("never saw 429 despite queue depth 1")
	}
	if pool.Stats().Rejected == 0 {
		t.Error("pool did not count the rejection")
	}
	for _, id := range ids {
		awaitJob(t, ts, id)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	hash := uploadNetlist(t, ts)
	// Queue two jobs on one worker; cancel the second while it waits.
	st1, _ := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"k":2}`, hash))
	st2, _ := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"k":4}`, hash))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Cancelled bool `json:"cancelled"`
	}
	decode(t, resp, &out)
	final2 := awaitJob(t, ts, st2.ID)
	// The job either got cancelled in the queue or finished first —
	// both are legal; what must never happen is a stuck or lost job.
	if final2.State != jobs.Cancelled && final2.State != jobs.Done {
		t.Errorf("cancelled job state = %s", final2.State)
	}
	if out.Cancelled && final2.State != jobs.Cancelled {
		t.Errorf("cancel acknowledged but state = %s", final2.State)
	}
	awaitJob(t, ts, st1.ID)
}

func TestJobsAndNetlistsListing(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1})
	hash := uploadNetlist(t, ts)
	st, _ := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"k":2}`, hash))
	awaitJob(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jl struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	decode(t, resp, &jl)
	if len(jl.Jobs) != 1 || jl.Jobs[0].ID != st.ID {
		t.Errorf("jobs list = %+v", jl)
	}

	resp, err = http.Get(ts.URL + "/v1/netlists")
	if err != nil {
		t.Fatal(err)
	}
	var nl struct {
		Netlists []jobs.NetlistInfo `json:"netlists"`
	}
	decode(t, resp, &nl)
	if len(nl.Netlists) != 1 || nl.Netlists[0].Hash != hash {
		t.Errorf("netlists list = %+v", nl)
	}

	resp, err = http.Get(ts.URL + "/v1/netlists/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("netlist get = %d", resp.StatusCode)
	}
}
