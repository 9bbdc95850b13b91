package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/journal"
)

// TestLabelsJSONRoundTrip pins the packed labels to the []int wire
// format: the same JSON bytes out, the same assignment back in, at one
// byte per module up to K = 128 and more beyond.
func TestLabelsJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{2, 128, 129, 300, 70000} {
		assign := make([]int, 500)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		assign[0], assign[1] = 0, k-1
		l := packLabels(assign)
		if k <= 128 && len(l) != len(assign) {
			t.Errorf("K=%d: %d bytes for %d modules, want one per module", k, len(l), len(assign))
		}
		got, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(assign)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("K=%d: labels marshal to %.60s…, []int to %.60s…", k, got, want)
		}
		var back Labels
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Ints(), assign) || !bytes.Equal(back, l) {
			t.Fatalf("K=%d: round trip changed the assignment", k)
		}
	}
}

// TestLabelsEmpty: an order job's result carries no assignment, and
// omitempty must still drop the field.
func TestLabelsEmpty(t *testing.T) {
	for _, res := range []*Result{{Order: []int{1, 0}}, {Order: []int{1, 0}, Assign: packLabels(nil)}} {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte(`"assign"`)) {
			t.Errorf("empty assignment serialized: %s", b)
		}
	}
	var l Labels
	if err := json.Unmarshal([]byte(`[]`), &l); err != nil || len(l.Ints()) != 0 {
		t.Errorf("[] decoded to %v (%v)", l.Ints(), err)
	}
	if err := json.Unmarshal([]byte(`null`), &l); err != nil || l != nil {
		t.Errorf("null decoded to %v (%v)", l, err)
	}
	if err := json.Unmarshal([]byte(`[0,"x"]`), &l); err == nil {
		t.Error("non-numeric label accepted")
	}
}

// TestRestoreDecodesIntAssignRecord replays a finish record whose result
// was written with the assignment as a plain []int, and checks the
// restored job serves the same assignment and re-encodes to the same
// bytes.
func TestRestoreDecodesIntAssignRecord(t *testing.T) {
	defer leakCheck(t)()
	const recorded = `{"assign":[0,1,1,0,2,2,1],"k":3,"netCut":4,"scaledCost":0.125,"spectrumCacheHit":true}`
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	p1 := NewPool(Config{Workers: 1, QueueDepth: 4, Journal: jnl})
	j, err := p1.Submit(Request{Netlist: testNetlist(t), Kind: KindPartition, Opts: optsMELO(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.AppendDurable(journal.Record{Type: journal.TypeFinish, ID: j.ID(), State: journal.StateDone,
		Result: json.RawMessage(recorded)}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p1.Shutdown(expired)

	jnl2, rep := openJournal(t, dir)
	defer jnl2.Close()
	p2 := NewPool(Config{Workers: 1, QueueDepth: 4, Journal: jnl2})
	if _, _, err := p2.Restore(rep); err != nil {
		t.Fatal(err)
	}
	restored, ok := p2.Job(j.ID())
	if !ok || restored.State() != Done {
		t.Fatalf("job %s not restored as done", j.ID())
	}
	res, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Assign.Ints(); !reflect.DeepEqual(got, []int{0, 1, 1, 0, 2, 2, 1}) || res.K != 3 {
		t.Fatalf("restored assignment %v (K=%d)", got, res.K)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != recorded {
		t.Errorf("restored result re-encodes to\n%s\nwant\n%s", b, recorded)
	}
	if err := p2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
