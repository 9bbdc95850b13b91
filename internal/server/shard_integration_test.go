package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	spectral "repro"
	"repro/internal/jobs"
	"repro/internal/speccache"
	"repro/internal/specstore"
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
	var st jobs.NetlistInfo
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
	// A peer lookup is not a job: the job cache counters (behind
	// spectrald_spectrum_cache_{hits,misses}_total) must not move.
	if st := pool.Cache().Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("peer lookup counted as job cache traffic: %d hits, %d misses", st.Hits, st.Misses)
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

func putSpectrum(t *testing.T, ts *httptest.Server, hash string, pairs int, data []byte) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/spectra?hash=%s&model=partitioning-specific&pairs=%d", ts.URL, hash, pairs),
		bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A shard owner shares spectra, not netlists, so an offer often arrives
// for a netlist it has never seen. Without a store nothing can keep the
// payload: the offer must be refused (404) and counted as a reject, not
// reported as adopted. With a store it is kept there for a later read
// to validate.
func TestSpectraOfferWithoutNetlist(t *testing.T) {
	h, err := spectral.GenerateBenchmark("prim1", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spectral.DecomposeCtx(context.Background(), h, spectral.ModelPartitioningSpecific, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spectral.EncodeSpectrum(sp)
	if err != nil {
		t.Fatal(err)
	}
	hash := speccache.Fingerprint(h)

	_, _, bare := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4})
	if code := putSpectrum(t, bare, hash, sp.Pairs(), data); code != http.StatusNotFound {
		t.Errorf("offer to a store-less server without the netlist = %d, want 404", code)
	}
	m := metricsText(t, bare)
	if !strings.Contains(m, "spectrald_shard_adopted_spectra_total 0") || !strings.Contains(m, "spectrald_shard_adopt_rejects_total 1") {
		t.Errorf("unkept offer not counted as a reject:\n%s", m)
	}

	store, err := specstore.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, _, stored := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 4, Store: store})
	if code := putSpectrum(t, stored, hash, sp.Pairs(), data); code != http.StatusNoContent {
		t.Errorf("offer to a server with a store = %d, want 204", code)
	}
	if !strings.Contains(metricsText(t, stored), "spectrald_shard_adopted_spectra_total 1") {
		t.Error("offer kept in the store not counted as adopted")
	}
	if e, ok, _ := store.Get(specstore.Key{Hash: hash, Model: "partitioning-specific"}); !ok || !bytes.Equal(e.Data, data) {
		t.Error("offered bytes did not land in the store")
	}
	// With no netlist to decode against, the payload's header is all that
	// can be checked: a malformed one is refused, not stored.
	if code := putSpectrum(t, stored, hash, 2, []byte("not a spectrum")); code != http.StatusUnprocessableEntity {
		t.Errorf("offer with a malformed header = %d, want 422", code)
	}
}
