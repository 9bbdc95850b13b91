package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// Every job option travels from an HTTP body through Submit, the
// journal and a restart's Restore unchanged — except parallelism, which
// is the daemon's to set, and an order job's partition-only fields.
func TestJobOptionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The pool is never started: every job is still queued at the
	// "crash", so Restore rebuilds each one from its journaled spec.
	pool := jobs.NewPool(jobs.Config{Workers: 1, QueueDepth: 32, Journal: jnl})
	ts := httptest.NewServer(New(pool, Config{}))
	hash := uploadNetlist(t, ts)
	areas := &delta.Delta{SetAreas: []delta.AreaChange{{Module: 0, Area: 2}}}

	cases := []struct {
		name, body string
		delta      bool
		want       journal.JobSpec
	}{
		{"k", `"k":3`, false, journal.JobSpec{Kind: "partition", Options: spectral.Options{K: 3}}},
		{"method", `"method":"sfc"`, false, journal.JobSpec{Kind: "partition", Options: spectral.Options{Method: spectral.SFC}}},
		{"d", `"d":4`, false, journal.JobSpec{Kind: "partition", Options: spectral.Options{D: 4}}},
		{"scheme", `"scheme":2`, false, journal.JobSpec{Kind: "partition", Options: spectral.Options{Scheme: 2}}},
		{"minFrac", `"minFrac":0.4`, false, journal.JobSpec{Kind: "partition", Options: spectral.Options{MinFrac: 0.4}}},
		{"refine", `"refine":true`, false, journal.JobSpec{Kind: "partition", Options: spectral.Options{Refine: true}}},
		{"coarsenThreshold", `"method":"mlmelo","coarsenThreshold":16`, false,
			journal.JobSpec{Kind: "partition", Options: spectral.Options{Method: spectral.MultilevelMELO, CoarsenThreshold: 16}}},
		{"maxLevels", `"method":"mlmelo","maxLevels":3`, false,
			journal.JobSpec{Kind: "partition", Options: spectral.Options{Method: spectral.MultilevelMELO, MaxLevels: 3}}},
		{"refinePasses", `"method":"mlmelo","refinePasses":-1`, false,
			journal.JobSpec{Kind: "partition", Options: spectral.Options{Method: spectral.MultilevelMELO, RefinePasses: -1}}},
		{"timeout", `"timeout":"30s"`, false, journal.JobSpec{Kind: "partition", TimeoutNS: 30e9}},
		{"parallelism dropped", `"k":2,"parallelism":3`, false, journal.JobSpec{Kind: "partition", Options: spectral.Options{K: 2}}},
		{"order keeps d and scheme", `"kind":"order","k":4,"method":"sfc","d":3,"scheme":1,"minFrac":0.3,"refine":true,"coarsenThreshold":9,"parallelism":2`, false,
			journal.JobSpec{Kind: "order", Options: spectral.Options{D: 3, Scheme: 1}}},
		{"empty method partition", `"method":""`, false, journal.JobSpec{Kind: "partition"}},
		{"empty method order", `"kind":"order","method":""`, false, journal.JobSpec{Kind: "order"}},
		{"empty method delta", `"method":"","k":2,"d":4,"parallelism":2`, true,
			journal.JobSpec{Kind: "delta", Options: spectral.Options{K: 2, D: 4}, BaseHash: hash, Delta: areas}},
	}
	ids := make([]string, len(cases))
	for i, c := range cases {
		var st jobs.Status
		if c.delta {
			resp, err := postDelta(t, ts, hash, `{"delta":{"setAreas":[{"module":0,"area":2}]},`+c.body+`}`)
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s: delta submit = %v, %v", c.name, resp, err)
			}
			var out struct {
				Job jobs.Status `json:"job"`
			}
			decode(t, resp, &out)
			st = out.Job
		} else {
			var code int
			if st, code = submitJob(t, ts, `{"netlist":"`+hash+`",`+c.body+`}`); code != http.StatusAccepted {
				t.Fatalf("%s: submit = %d, want 202", c.name, code)
			}
		}
		if st.Method != c.want.Method.String() {
			t.Errorf("%s: status method = %q, want %q", c.name, st.Method, c.want.Method)
		}
		ids[i] = st.ID
	}

	// Crash, restart, and compact: the compaction journals every job's
	// spec from the request Restore rebuilt.
	ts.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = pool.Shutdown(expired)
	jnl2, rep, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool2 := jobs.NewPool(jobs.Config{Workers: 1, QueueDepth: 32, Journal: jnl2})
	if _, err := pool2.Restore(rep); err != nil {
		t.Fatal(err)
	}
	if err := pool2.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if err := jnl2.Close(); err != nil {
		t.Fatal(err)
	}
	_ = pool2.Shutdown(expired)

	jnl3, rep, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl3.Close()
	specs := make(map[string]*journal.JobSpec, len(rep.Jobs))
	for _, jr := range rep.Jobs {
		specs[jr.ID] = jr.Spec
	}
	for i, c := range cases {
		got := specs[ids[i]]
		if got == nil || !reflect.DeepEqual(*got, c.want) {
			b, _ := json.Marshal(got)
			w, _ := json.Marshal(c.want)
			t.Errorf("%s: restored spec %s, want %s", c.name, b, w)
		}
	}
}
