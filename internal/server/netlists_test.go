package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// listNetlists returns the hashes GET /v1/netlists lists, in its order.
func listNetlists(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/v1/netlists")
	if err != nil {
		t.Fatal(err)
	}
	var nl struct {
		Netlists []jobs.NetlistInfo `json:"netlists"`
	}
	decode(t, resp, &nl)
	hashes := make([]string, len(nl.Netlists))
	for i, st := range nl.Netlists {
		hashes[i] = st.Hash
	}
	return hashes
}

// An ECO session names its base in every delta, so the store's bound
// must evict the mutants, never the base: with room for four netlists,
// a seventh delta against the base is still accepted.
func TestECOBaseSurvivesItsDeltas(t *testing.T) {
	const bound = 4
	_, _, ts := newTestServer(t, jobs.Config{Workers: 1, QueueDepth: 16, MaxNetlists: bound})
	base := uploadNetlist(t, ts)
	mutants := map[string]bool{}
	for i := 1; i <= 7; i++ {
		m := acceptDelta(t, ts, base, i)
		if mutants[m] {
			t.Fatalf("delta %d repeats mutant %s", i, m)
		}
		mutants[m] = true
	}
	if code := getNetlist(t, ts, base); code != http.StatusOK {
		t.Errorf("base after its deltas = %d, want 200", code)
	}
	if got := listNetlists(t, ts.URL); len(got) != bound {
		t.Errorf("store lists %d netlists, want the bound %d", len(got), bound)
	}
}

// acceptDelta posts the i-th delta against base, fails unless it is
// accepted, and returns the mutant's hash. Deltas that differ only in
// net names share a fingerprint, so each i joins a different module
// pair.
func acceptDelta(t *testing.T, ts *httptest.Server, base string, i int) string {
	t.Helper()
	resp, err := postDelta(t, ts, base, fmt.Sprintf(`{"delta":{"addNets":[{"name":"eco","modules":[0,%d]}]},"k":2}`, i))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("delta %d against the base = %d: %s", i, resp.StatusCode, body)
	}
	var acc deltaAccepted
	decode(t, resp, &acc)
	return acc.Netlist
}

// getNetlist returns the status of GET /v1/netlists/{hash}.
func getNetlist(t *testing.T, ts *httptest.Server, hash string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/netlists/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A restart rebuilds the store's order of use from the journal: the
// base every journaled delta names outranks the deltas' mutants, so
// with room for four netlists the base uploaded before six deltas
// still serves and takes a seventh delta.
func TestECOBaseSurvivesRestart(t *testing.T) {
	const bound = 4
	dir := t.TempDir()
	cfg := jobs.Config{Workers: 1, QueueDepth: 16, MaxNetlists: bound}
	_, pool1, ts1 := newJournaledServer(t, dir, nil, cfg)
	base := uploadNetlist(t, ts1)
	for i := 1; i <= 6; i++ {
		acceptDelta(t, ts1, base, i)
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

	_, _, ts2 := newJournaledServer(t, dir, nil, cfg)
	if code := getNetlist(t, ts2, base); code != http.StatusOK {
		t.Fatalf("base after restart = %d, want 200", code)
	}
	if got := listNetlists(t, ts2.URL); len(got) != bound {
		t.Errorf("store lists %d netlists after restart, want the bound %d", len(got), bound)
	}
	acceptDelta(t, ts2, base, 7)
}

// A restart refills the store from the journal in upload order, so it
// keeps the newest netlists the bound allows, listed as they were
// uploaded, and each still takes jobs.
func TestRestartKeepsNewestNetlistsInOrder(t *testing.T) {
	const bound, uploads = 4, 10
	dir := t.TempDir()
	cfg := jobs.Config{Workers: 1, QueueDepth: 16, MaxNetlists: bound}
	_, pool1, ts1 := newJournaledServer(t, dir, nil, cfg)
	var hashes []string
	for i := 1; i <= uploads; i++ {
		resp, err := http.Post(ts1.URL+"/v1/netlists", "application/json",
			strings.NewReader(fmt.Sprintf(`{"benchmark":"prim1","scale":0.05,"seed":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			resp.Body.Close()
			t.Fatalf("upload %d = %d", i, resp.StatusCode)
		}
		var st jobs.NetlistInfo
		decode(t, resp, &st)
		hashes = append(hashes, st.Hash)
	}
	want := hashes[uploads-bound:]
	if got := listNetlists(t, ts1.URL); !reflect.DeepEqual(got, want) {
		t.Fatalf("before restart the store lists %v, want %v", got, want)
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

	_, _, ts2 := newJournaledServer(t, dir, nil, cfg)
	if got := listNetlists(t, ts2.URL); !reflect.DeepEqual(got, want) {
		t.Fatalf("after restart the store lists %v, want %v", got, want)
	}
	for _, hash := range want {
		if _, code := submitJob(t, ts2, fmt.Sprintf(`{"netlist":%q,"k":2}`, hash)); code != http.StatusAccepted {
			t.Errorf("job on restored netlist %s = %d, want 202", hash, code)
		}
	}
}
