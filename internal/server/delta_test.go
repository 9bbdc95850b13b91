package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/speccache"
	"repro/internal/trace"
)

// deltaAccepted is the 202 body of POST /v1/netlists/{hash}/delta.
type deltaAccepted struct {
	Job     jobs.Status `json:"job"`
	Netlist string      `json:"netlist"`
	Base    string      `json:"base"`
	Reach   delta.Reach `json:"reach"`
}

func postDelta(t *testing.T, ts *httptest.Server, base, body string) (*http.Response, error) {
	t.Helper()
	return http.Post(ts.URL+"/v1/netlists/"+base+"/delta", "application/json", strings.NewReader(body))
}

// The full incremental flow over HTTP: upload a base, partition it,
// POST a delta, and check the job's answer matches a cold partition of
// the mutated netlist exactly.
func TestDeltaEndpointEndToEnd(t *testing.T) {
	_, pool, ts := newTestServer(t, jobs.Config{Workers: 2, QueueDepth: 16})
	baseHash := uploadNetlist(t, ts)

	// The generator is deterministic, so the test knows the uploaded
	// netlist's net names and can mirror the server-side Apply locally.
	base, err := spectral.GenerateBenchmark("prim1", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	d := &delta.Delta{
		RemoveNets: []string{base.NetNames[0]},
		AddNets:    []delta.NetChange{{Name: "eco-http", Modules: []int{0, 7}}},
	}
	mut, _, err := delta.Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the base spectrum like an ECO flow: partition the base first.
	st, code := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"k":2}`, baseHash))
	if code != http.StatusAccepted {
		t.Fatalf("base job status = %d", code)
	}
	awaitJob(t, ts, st.ID)

	resp, err := postDelta(t, ts, baseHash,
		`{"delta":{"removeNets":["`+base.NetNames[0]+`"],"addNets":[{"name":"eco-http","modules":[0,7]}]},"k":2}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("delta status = %d: %s", resp.StatusCode, body)
	}
	var acc deltaAccepted
	decode(t, resp, &acc)
	if acc.Base != baseHash {
		t.Errorf("base echo = %q, want %q", acc.Base, baseHash)
	}
	if want := speccache.Fingerprint(mut); acc.Netlist != want {
		t.Errorf("mutated hash = %q, want %q", acc.Netlist, want)
	}
	if acc.Reach.Nets < 2 || acc.Reach.Modules == 0 {
		t.Errorf("reach = %+v, want a visible perturbation", acc.Reach)
	}
	if acc.Job.Kind != jobs.KindDelta || acc.Job.BaseHash != baseHash {
		t.Errorf("job status = %+v, want kind delta with base hash", acc.Job)
	}

	// The mutated netlist is now stored and exportable.
	nresp, err := http.Get(ts.URL + "/v1/netlists/" + acc.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK {
		t.Errorf("mutated netlist lookup = %d, want 200", nresp.StatusCode)
	}

	fin := awaitJob(t, ts, acc.Job.ID)
	if fin.State != jobs.Done {
		t.Fatalf("delta job state %s: %s", fin.State, fin.Error)
	}
	res := fin.Result
	if res == nil {
		t.Fatal("done delta job has no result")
	}
	if res.WarmStart == "" || res.BaseHash != baseHash || res.Stability == nil || res.Reach == nil {
		t.Fatalf("delta result incomplete: %+v", res)
	}
	cold, err := spectral.PartitionCtx(context.Background(), mut, spectral.Options{K: 2, Method: spectral.MELO})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetCut != spectral.NetCut(mut, cold) {
		t.Errorf("delta cut %d != cold cut %d", res.NetCut, spectral.NetCut(mut, cold))
	}
	for i, c := range res.Assign.Ints() {
		if c != cold.Assign[i] {
			t.Fatalf("delta assign differs from cold at module %d", i)
		}
	}
	if res.Stability.NewCut != res.NetCut {
		t.Errorf("stability NewCut %d != cut %d", res.Stability.NewCut, res.NetCut)
	}
	if sum := func() uint64 {
		s := pool.Stats()
		return s.WarmAccepted + s.WarmSeeded + s.WarmRejected
	}(); sum != 1 {
		t.Errorf("warm outcome count = %d, want 1", sum)
	}
}

func TestDeltaEndpointErrors(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	baseHash := uploadNetlist(t, ts)

	cases := []struct {
		name, base, body string
		want             int
	}{
		{"unknown-base", "nope", `{"delta":{"removeNets":["x"]},"k":2}`, http.StatusNotFound},
		{"missing-delta", baseHash, `{"k":2}`, http.StatusBadRequest},
		{"bad-json", baseHash, `{`, http.StatusBadRequest},
		{"unknown-net", baseHash, `{"delta":{"removeNets":["no-such-net"]},"k":2}`, http.StatusUnprocessableEntity},
		{"out-of-range", baseHash, `{"delta":{"addNets":[{"name":"x","modules":[0,99999]}]},"k":2}`, http.StatusUnprocessableEntity},
		{"bad-method", baseHash, `{"delta":{"setAreas":[{"module":0,"area":2}]},"method":"bogus"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := postDelta(t, ts, tc.base, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// GET /v1/netlists/{hash}?format=text must round-trip: the export
// reparses to the same fingerprint.
func TestNetlistTextExportRoundTrips(t *testing.T) {
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1})
	baseHash := uploadNetlist(t, ts)
	resp, err := http.Get(ts.URL + "/v1/netlists/" + baseHash + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d", resp.StatusCode)
	}
	_, h, err := spectral.LoadNetlist(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := speccache.Fingerprint(h); got != baseHash {
		t.Errorf("re-parsed fingerprint %q != %q", got, baseHash)
	}

	bad, err := http.Get(ts.URL + "/v1/netlists/" + baseHash + "?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format status = %d, want 400", bad.StatusCode)
	}
}

// /metrics must expose the warm-start outcome counters — both the
// pool's spectrald_warmstart_total family and the facade's trace
// counter (what the CI smoke asserts on).
func TestMetricsExposeWarmStartCounters(t *testing.T) {
	tr := trace.New(trace.NewRing(4096))
	pool := jobs.NewPool(jobs.Config{Workers: 1, QueueDepth: 8})
	pool.SetTracer(tr)
	pool.Start()
	srv := New(pool, Config{Tracer: tr})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	baseHash := uploadNetlist(t, ts)
	resp, err := postDelta(t, ts, baseHash, `{"delta":{"setAreas":[{"module":0,"area":2}]},"k":2}`)
	if err != nil {
		t.Fatal(err)
	}
	var acc deltaAccepted
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("delta status = %d", resp.StatusCode)
	}
	decode(t, resp, &acc)
	awaitJob(t, ts, acc.Job.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `spectrald_warmstart_total{outcome="accepted"}`) {
		t.Error("metrics lack spectrald_warmstart_total{outcome=\"accepted\"}")
	}
	if !strings.Contains(text, `spectrald_trace_counter_total{name="eigen.warmstart.`) {
		t.Error("metrics lack the eigen.warmstart trace counter the CI smoke asserts on")
	}
}
