package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	spectral "repro"
	"repro/internal/journal"
	"repro/internal/speccache"
)

// Journals already on disk must keep replaying. The submit records
// below are the raw bytes of the established spec format: a partition
// spec names MELO explicitly, an order spec names no method, and a
// delta spec carries its delta as raw JSON. Each job must rebuild to
// the Request it was submitted with.
func TestReplayEstablishedSpecFormat(t *testing.T) {
	defer leakCheck(t)()
	base, d, mut := deltaBase(t)
	baseHash, mutHash := speccache.Fingerprint(base), speccache.Fingerprint(mut)
	var body bytes.Buffer
	if err := spectral.SaveNetlist(&body, "base", base); err != nil {
		t.Fatal(err)
	}
	netRec, err := json.Marshal(journal.Record{Type: journal.TypeNetlist, Hash: baseHash, Netlist: body.Bytes(), UnixNS: 1})
	if err != nil {
		t.Fatal(err)
	}
	rawDelta := fmt.Sprintf(`{"removeNets":[%q],"addNets":[{"name":"eco-x","modules":[1,%d]}]}`,
		base.NetNames[0], base.NumModules()-2)

	cases := []struct {
		id, hash, spec string
		want           Request
		shedFromD      int
	}{
		{"job-000001", baseHash, `{"kind":"partition","method":"melo","k":2,"d":10}`,
			Request{Kind: KindPartition, Opts: spectral.Options{K: 2, D: 10}}, 0},
		{"job-000002", baseHash, `{"kind":"order","d":5,"scheme":2}`,
			Request{Kind: KindOrder, Opts: spectral.Options{D: 5, Scheme: 2}}, 0},
		{"job-000003", mutHash, `{"kind":"delta","method":"melo","k":2,"d":6,"baseHash":"` + baseHash + `","delta":` + rawDelta + `}`,
			Request{Kind: KindDelta, Opts: spectral.Options{K: 2, D: 6}, BaseHash: baseHash, Delta: d}, 0},
		{"job-000004", baseHash, `{"kind":"partition","method":"mlmelo","k":2,"coarsenThreshold":16,"maxLevels":3,"refinePasses":-1}`,
			Request{Kind: KindPartition, Opts: spectral.Options{K: 2, Method: spectral.MultilevelMELO, CoarsenThreshold: 16, MaxLevels: 3, RefinePasses: -1}}, 0},
		{"job-000005", baseHash, `{"kind":"partition","method":"sfc","k":3,"d":4,"scheme":1,"minFrac":0.4,"refine":true,"parallelism":1,"timeoutNS":30000000000,"shedFromD":10}`,
			Request{Kind: KindPartition, Opts: spectral.Options{K: 3, Method: spectral.SFC, D: 4, Scheme: 1, MinFrac: 0.4, Refine: true, Parallelism: 1}, Timeout: 30 * time.Second}, 10},
	}
	seg := bytes.NewBufferString("SPECJRNL1\n")
	writeRec := func(payload string) {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE([]byte(payload)))
		seg.Write(hdr[:])
		seg.WriteString(payload)
	}
	writeRec(string(netRec))
	for _, c := range cases {
		writeRec(`{"t":"submit","ts":1,"hash":"` + c.hash + `","id":"` + c.id + `","spec":` + c.spec + `}`)
	}
	// A method this build does not know fails its job; it is never lost.
	writeRec(`{"t":"submit","ts":1,"hash":"` + baseHash + `","id":"job-000006","spec":{"kind":"partition","method":"quantum","k":2}}`)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal-00000001.seg"), seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	jnl, rep := openJournal(t, dir)
	defer jnl.Close()
	p := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl})
	stats, err := p.Restore(rep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reenqueued != len(cases) || stats.FailedOnReplay != 1 {
		t.Errorf("restore stats = %+v, want %d re-enqueued, 1 failed", stats, len(cases))
	}
	for _, c := range cases {
		j, ok := p.Job(c.id)
		if !ok {
			t.Fatalf("job %s lost in replay", c.id)
		}
		got := j.req
		got.Netlist, got.base, got.reach = nil, nil, nil
		c.want.Hash = c.hash
		if !reflect.DeepEqual(got, c.want) || j.shedFromD != c.shedFromD {
			t.Errorf("job %s rebuilt to %+v (shedFromD %d), want %+v (shedFromD %d)", c.id, got, j.shedFromD, c.want, c.shedFromD)
		}
	}
	if j, ok := p.Job("job-000006"); !ok || j.State() != Failed {
		t.Errorf("job with an unknown method: present=%v, want failed", ok)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p.Shutdown(expired)
}
