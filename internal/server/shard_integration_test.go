package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	spectral "repro"
	"repro/internal/jobs"
)

func netlistTextScale(t *testing.T, scale float64) string {
	t.Helper()
	h, err := spectral.GenerateBenchmark("prim1", scale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spectral.SaveNetlist(&buf, "prim1-scaled", h); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func uploadText(t *testing.T, ts *httptest.Server, text string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/netlists", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var st storedNetlist
	decode(t, resp, &st)
	return st.Hash
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	return body.String()
}

// Two sharded instances must behave as one cache: a spectrum computed
// by instance A serves instance B's job for the same netlist with zero
// additional eigensolves — either B proxies the fetch to the owner, or
// the owner (B) already adopted A's synchronous offer. And when the
// peer dies, jobs still complete by local compute.
func TestTwoInstanceShardSharesSpectra(t *testing.T) {
	srvA, poolA, tsA := newTestServer(t, jobs.Config{Workers: 2, QueueDepth: 8})
	srvB, poolB, tsB := newTestServer(t, jobs.Config{Workers: 2, QueueDepth: 8})
	if err := srvA.ConfigureSharding(tsA.URL, []string{tsB.URL}); err != nil {
		t.Fatal(err)
	}
	if err := srvB.ConfigureSharding(tsB.URL, []string{tsA.URL}); err != nil {
		t.Fatal(err)
	}
	if srvA.Ring().N() != 2 || srvB.Ring().N() != 2 {
		t.Fatalf("ring sizes %d/%d, want 2/2", srvA.Ring().N(), srvB.Ring().N())
	}

	// Both instances hold the netlist (the shard shares spectra, not
	// netlists).
	text := netlistTextScale(t, 0.06)
	hash := uploadText(t, tsA, text)
	if h2 := uploadText(t, tsB, text); h2 != hash {
		t.Fatalf("same netlist hashed %s on A, %s on B", hash, h2)
	}

	stA, code := submitJob(t, tsA, fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2}`, hash))
	if code != http.StatusAccepted {
		t.Fatalf("submit to A = %d", code)
	}
	finalA := awaitJob(t, tsA, stA.ID)
	if finalA.State != jobs.Done || finalA.Result == nil {
		t.Fatalf("job on A finished %s", finalA.State)
	}
	if got := poolA.Stats().Computed; got != 1 {
		t.Fatalf("A computed %d decompositions, want 1", got)
	}

	stB, code := submitJob(t, tsB, fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2}`, hash))
	if code != http.StatusAccepted {
		t.Fatalf("submit to B = %d", code)
	}
	finalB := awaitJob(t, tsB, stB.ID)
	if finalB.State != jobs.Done || finalB.Result == nil {
		t.Fatalf("job on B finished %s", finalB.State)
	}
	// The cross-instance guarantee: B never ran an eigensolve, and the
	// answer is bit-identical to A's.
	if got := poolB.Stats().Computed; got != 0 {
		t.Errorf("B computed %d decompositions, want 0 (shard should have served it)", got)
	}
	if !strings.Contains(metricsText(t, tsB), "spectrald_spectrum_computed_total 0") {
		t.Error("B /metrics does not report zero computed decompositions")
	}
	assignA, assignB := finalA.Result.Assign.Ints(), finalB.Result.Assign.Ints()
	if len(assignA) != len(assignB) {
		t.Fatal("assignment lengths differ across instances")
	}
	for i := range assignA {
		if assignA[i] != assignB[i] {
			t.Fatalf("module %d: A assigned %d, B assigned %d", i, assignA[i], assignB[i])
		}
	}

	// Kill A. B must still complete new work by degrading to local
	// compute, whichever instance owns the key.
	tsA.Close()
	hash2 := uploadText(t, tsB, netlistTextScale(t, 0.15))
	stB2, code := submitJob(t, tsB, fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2}`, hash2))
	if code != http.StatusAccepted {
		t.Fatalf("submit to B after peer death = %d", code)
	}
	finalB2 := awaitJob(t, tsB, stB2.ID)
	if finalB2.State != jobs.Done {
		t.Fatalf("job on B after peer death finished %s: %s", finalB2.State, finalB2.Error)
	}
	if got := poolB.Stats().Computed; got != 1 {
		t.Errorf("B computed %d decompositions after peer death, want 1 (local fallback)", got)
	}
}

// GET /v1/spectra answers peer lookups from local tiers only — a miss
// is a 404, never a compute — and PUT /v1/spectra rejects damaged
// payloads so a misbehaving peer cannot poison the cache.
func TestSpectraPeerEndpoints(t *testing.T) {
	_, pool, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	hash := uploadNetlist(t, ts)

	// Miss: nothing cached yet, and the lookup must not trigger a solve.
	resp, err := http.Get(ts.URL + "/v1/spectra?hash=" + hash + "&model=partitioning-specific&pairs=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold lookup = %d, want 404", resp.StatusCode)
	}
	if got := pool.Stats().Computed; got != 0 {
		t.Fatalf("peer lookup triggered %d eigensolves", got)
	}

	// Warm the cache, then the lookup serves bytes.
	st, _ := submitJob(t, ts, fmt.Sprintf(`{"netlist":%q,"method":"melo","k":2}`, hash))
	awaitJob(t, ts, st.ID)
	resp, err = http.Get(ts.URL + "/v1/spectra?hash=" + hash + "&model=partitioning-specific&pairs=2")
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	_, _ = data.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || data.Len() == 0 {
		t.Fatalf("warm lookup = %d with %d bytes", resp.StatusCode, data.Len())
	}
	if resp.Header.Get("Spectrald-Pairs") == "" {
		t.Error("warm lookup missing Spectrald-Pairs header")
	}

	// A garbage offer for a known netlist must be rejected.
	req, _ := http.NewRequest(http.MethodPut,
		ts.URL+"/v1/spectra?hash="+hash+"&model=partitioning-specific&pairs=2",
		strings.NewReader("not a spectrum"))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("garbage offer = %d, want 422", resp.StatusCode)
	}

	// Re-offering the real bytes is accepted.
	req, _ = http.NewRequest(http.MethodPut,
		ts.URL+"/v1/spectra?hash="+hash+"&model=partitioning-specific&pairs=2",
		bytes.NewReader(data.Bytes()))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("valid offer = %d, want 204", resp.StatusCode)
	}

	// Parameter validation.
	for _, q := range []string{"", "?hash=x", "?hash=x&model=y", "?hash=x&model=y&pairs=0"} {
		resp, err := http.Get(ts.URL + "/v1/spectra" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("lookup %q = %d, want 400", q, resp.StatusCode)
		}
	}
}
