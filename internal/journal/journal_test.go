package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) (*Journal, *ReplayResult) {
	t.Helper()
	j, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rep
}

func submitRec(id, hash string) Record {
	return Record{Type: TypeSubmit, ID: id, Hash: hash, Spec: &JobSpec{Kind: "partition", Method: "melo", K: 2, D: 10}}
}

func bodyOf(s string) func() ([]byte, error) {
	return func() ([]byte, error) { return []byte(s), nil }
}

func finishRec(id, state string) Record {
	return Record{Type: TypeFinish, ID: id, State: state, Result: json.RawMessage(`{"k":2}`)}
}

// Round trip: everything appended before a clean close replays, with
// job records folded to their latest state.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep := openT(t, dir, Options{})
	if len(rep.Jobs) != 0 || len(rep.Netlists) != 0 {
		t.Fatalf("fresh dir replayed state: %+v", rep)
	}
	if err := j.AppendNetlist("sha256:aa", "prim1", bodyOf("net n1 a b\n"), 1); err != nil {
		t.Fatal(err)
	}
	// Duplicate netlist appends are deduplicated.
	if err := j.AppendNetlist("sha256:aa", "prim1", bodyOf("net n1 a b\n"), 2); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDurable(submitRec("job-000001", "sha256:aa")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeStart, ID: "job-000001"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDurable(finishRec("job-000001", StateDone)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDurable(submitRec("job-000002", "sha256:aa")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeCancel, ID: "job-000002"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeSpectrum, Hash: "sha256:aa", Model: "partitioning-specific", Pairs: 11}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep = openT(t, dir, Options{})
	if got := len(rep.Netlists); got != 1 {
		t.Fatalf("netlists = %d, want 1", got)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(rep.Jobs))
	}
	j1, j2 := rep.Jobs[0], rep.Jobs[1]
	if j1.ID != "job-000001" || j1.State != StateDone || string(j1.Result) != `{"k":2}` {
		t.Errorf("job 1 replay: %+v", j1)
	}
	if j1.Spec == nil || j1.Spec.Method != "melo" || j1.Spec.D != 10 {
		t.Errorf("job 1 spec: %+v", j1.Spec)
	}
	if j2.State != StatePending || !j2.CancelRequested {
		t.Errorf("job 2 replay: state=%s cancelRequested=%v", j2.State, j2.CancelRequested)
	}
	if len(rep.Hints) != 1 || rep.Hints[0].Pairs != 11 {
		t.Errorf("hints: %+v", rep.Hints)
	}
	if rep.Stats.CorruptRecords != 0 || rep.Stats.TornSegments != 0 {
		t.Errorf("clean journal reported damage: %+v", rep.Stats)
	}
}

// A torn tail (crash mid-write) truncates, warns, and keeps every
// record before the tear. Boot is never refused.
func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.AppendDurable(submitRec("job-000001", "h")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDurable(submitRec("job-000002", "h")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, drop := range []int{1, 5, 9} { // torn payload, torn payload, torn header
		t.Run(fmt.Sprintf("drop%d", drop), func(t *testing.T) {
			dir2 := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir2, segName(1)), data[:len(data)-drop], 0o644); err != nil {
				t.Fatal(err)
			}
			_, rep := openT(t, dir2, Options{})
			if len(rep.Jobs) != 1 || rep.Jobs[0].ID != "job-000001" {
				t.Fatalf("replayed jobs: %+v", rep.Jobs)
			}
			if rep.Stats.TornSegments != 1 || rep.Stats.TruncatedBytes == 0 {
				t.Errorf("stats: %+v", rep.Stats)
			}
			if len(rep.Stats.Warnings) == 0 {
				t.Error("no warning recorded for torn tail")
			}
		})
	}
}

// A corrupt record (bit flip under the CRC) truncates that segment at
// the damage point and continues with later segments.
func TestCorruptRecordTruncatesSegmentOnly(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{SegmentBytes: 1}) // rotate after every record
	if err := j.AppendDurable(submitRec("job-000001", "h")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDurable(submitRec("job-000002", "h")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDurable(finishRec("job-000002", StateFailed)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the second record's segment.
	seg := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+12] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rep := openT(t, dir, Options{})
	if rep.Stats.CorruptRecords == 0 {
		t.Fatalf("corruption not detected: %+v", rep.Stats)
	}
	// Job 1 (earlier segment) and job 2's finish (later segment) survive;
	// job 2's submit is the sacrificed record, so it appears
	// finish-only.
	var ids []string
	for _, jr := range rep.Jobs {
		ids = append(ids, jr.ID+":"+jr.State)
	}
	want := map[string]string{"job-000001": StatePending, "job-000002": StateFailed}
	if len(rep.Jobs) != 2 {
		t.Fatalf("jobs after corruption: %v", ids)
	}
	for _, jr := range rep.Jobs {
		if want[jr.ID] != jr.State {
			t.Errorf("job %s state %s, want %s", jr.ID, jr.State, want[jr.ID])
		}
	}
	if rep.Jobs[1].Spec != nil {
		t.Errorf("job 2 spec should be lost to corruption, got %+v", rep.Jobs[1].Spec)
	}
}

// Segments rotate at the size threshold and replay across generations.
func TestRotationAndReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{SegmentBytes: 256})
	for i := 1; i <= 20; i++ {
		if err := j.AppendDurable(submitRec(fmt.Sprintf("job-%06d", i), "h")); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotations, got %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, dir, Options{})
	if len(rep.Jobs) != 20 {
		t.Fatalf("replayed %d jobs, want 20", len(rep.Jobs))
	}
	// First-seen order is submission order.
	for i, jr := range rep.Jobs {
		if want := fmt.Sprintf("job-%06d", i+1); jr.ID != want {
			t.Fatalf("jobs[%d] = %s, want %s", i, jr.ID, want)
		}
	}
}

// Compaction folds live state into one segment and deletes the old
// generation; a subsequent replay sees exactly the snapshot's records.
func TestRewriteCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{SegmentBytes: 256})
	for i := 1; i <= 12; i++ {
		id := fmt.Sprintf("job-%06d", i)
		if err := j.AppendDurable(submitRec(id, "h")); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendDurable(finishRec(id, StateDone)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.CompactWith(func() []Record {
		return []Record{
			{Type: TypeNetlist, Hash: "h", Netlist: []byte("net n a b\n")},
			submitRec("job-000012", "h"),
			finishRec("job-000012", StateDone),
		}
	}); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("stats after rewrite: %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 { // compaction folds everything into exactly one segment
		t.Fatalf("segments on disk: %v", names)
	}
	_, rep := openT(t, dir, Options{})
	if len(rep.Jobs) != 1 || rep.Jobs[0].ID != "job-000012" || rep.Jobs[0].State != StateDone {
		t.Fatalf("replay after compaction: %+v", rep.Jobs)
	}
	if _, ok := rep.Netlist("h"); !ok {
		t.Error("netlist lost in compaction")
	}
}

// failFile injects a write error on the nth Write call.
type failFile struct {
	f      File
	writes int
	failAt int
}

func (f *failFile) Write(p []byte) (int, error) {
	f.writes++
	if f.failAt > 0 && f.writes >= f.failAt {
		return 0, errors.New("injected write error")
	}
	return f.f.Write(p)
}
func (f *failFile) Sync() error  { return f.f.Sync() }
func (f *failFile) Close() error { return f.f.Close() }

// A failed write leaves the journal sticky-failed — durable appends
// refuse to lie — until a compaction recovers it onto a fresh segment.
func TestWriteErrorIsStickyUntilRewrite(t *testing.T) {
	dir := t.TempDir()
	var ff *failFile
	opts := Options{OpenFile: func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		ff = &failFile{f: f}
		return ff, nil
	}}
	j, _ := openT(t, dir, opts)
	if err := j.AppendDurable(submitRec("job-000001", "h")); err != nil {
		t.Fatal(err)
	}
	ff.failAt = ff.writes + 1
	if err := j.AppendDurable(submitRec("job-000002", "h")); err == nil {
		t.Fatal("append through failing file succeeded")
	}
	ff.failAt = 0
	if err := j.AppendDurable(submitRec("job-000003", "h")); err == nil {
		t.Fatal("sticky error cleared without a compaction")
	}
	if j.Err() == nil {
		t.Fatal("Err() nil after failure")
	}
	if err := j.CompactWith(func() []Record { return []Record{submitRec("job-000001", "h")} }); err != nil {
		t.Fatalf("compaction recovery: %v", err)
	}
	if err := j.AppendDurable(submitRec("job-000004", "h")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if st := j.Stats(); st.WriteErrors == 0 {
		t.Error("write error not counted")
	}
}

// AppendNetlist builds a body only for a hash the journal has not
// recorded: a repeat never calls the producer, and a failed append
// forgets the hash so the next submission builds and appends it again.
func TestAppendNetlistBuildsBodyOnce(t *testing.T) {
	dir := t.TempDir()
	var ff *failFile
	opts := Options{OpenFile: func(path string) (File, error) {
		f, err := DefaultOpenFile(path)
		if err != nil {
			return nil, err
		}
		ff = &failFile{f: f}
		return ff, nil
	}}
	j, _ := openT(t, dir, opts)
	calls := map[string]int{}
	body := func(hash string) func() ([]byte, error) {
		return func() ([]byte, error) {
			calls[hash]++
			return []byte("net n1 a b\n"), nil
		}
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendNetlist("sha256:aa", "", body("sha256:aa"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if calls["sha256:aa"] != 1 {
		t.Fatalf("body built %d times for one hash, want 1", calls["sha256:aa"])
	}

	ff.failAt = ff.writes + 1
	if err := j.AppendNetlist("sha256:bb", "", body("sha256:bb"), 2); err == nil {
		t.Fatal("append through failing file succeeded")
	}
	ff.failAt = 0
	if err := j.CompactWith(func() []Record {
		return []Record{{Type: TypeNetlist, Hash: "sha256:aa", Netlist: []byte("net n1 a b\n")}}
	}); err != nil {
		t.Fatalf("compaction recovery: %v", err)
	}
	if err := j.AppendNetlist("sha256:bb", "", body("sha256:bb"), 3); err != nil {
		t.Fatalf("retry after failed append: %v", err)
	}
	if err := j.AppendNetlist("sha256:aa", "", body("sha256:aa"), 4); err != nil {
		t.Fatal(err)
	}
	if calls["sha256:bb"] != 2 || calls["sha256:aa"] != 1 {
		t.Fatalf("body calls = %v, want sha256:bb twice (fail, retry) and sha256:aa once", calls)
	}

	// A producer's error fails the append and, like a failed write,
	// leaves the hash unrecorded.
	bad := func() ([]byte, error) { calls["sha256:cc"]++; return nil, errors.New("no body") }
	if err := j.AppendNetlist("sha256:cc", "", bad, 5); err == nil {
		t.Fatal("append with a failing body producer succeeded")
	}
	if err := j.AppendNetlist("sha256:cc", "", body("sha256:cc"), 6); err != nil {
		t.Fatal(err)
	}
	if calls["sha256:cc"] != 2 {
		t.Fatalf("sha256:cc body built %d times, want 2", calls["sha256:cc"])
	}
}

// Group commit: concurrent durable appends all land, and the fsync
// count stays well below one per append.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = j.AppendDurable(submitRec(fmt.Sprintf("job-%06d", i+1), "h"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := j.Stats()
	if st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
	t.Logf("group commit: %d appends, %d fsyncs", st.Appends, st.Syncs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, dir, Options{})
	if len(rep.Jobs) != n {
		t.Fatalf("replayed %d jobs, want %d", len(rep.Jobs), n)
	}
}

// Rotation under concurrent durable appends: the group-commit leader's
// fsync must target the live segment even when another append rotates
// (flushes, syncs and closes the previous file) between the leader's
// append and its sync. With SegmentBytes=1 every record rotates, so any
// sync aimed at a stale file handle errors and sticky-fails the
// journal.
func TestDurableAppendsSurviveConcurrentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{SegmentBytes: 1})
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = j.AppendDurable(submitRec(fmt.Sprintf("job-%06d", i+1), "h"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Err(); err != nil {
		t.Fatalf("journal sticky-failed under rotation pressure: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, dir, Options{})
	if len(rep.Jobs) != n {
		t.Fatalf("replayed %d jobs, want %d", len(rep.Jobs), n)
	}
}

// Compaction racing durable appends must not lose acknowledged records:
// every append either completes before CompactWith takes its snapshot
// (and the snapshot source, written to before the append, reflects it)
// or lands in the post-compaction generation. Appenders here mirror the
// pool's publish-then-journal ordering.
func TestCompactWithDoesNotLoseConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{SegmentBytes: 512}) // rotate often
	var (
		mu    sync.Mutex
		acked = make(map[string]bool) // published before append; true once durable
	)
	const workers, each = 4, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("job-%03d%03d", w, i)
				mu.Lock()
				acked[id] = false
				mu.Unlock()
				if err := j.AppendDurable(submitRec(id, "h")); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
				mu.Lock()
				acked[id] = true
				mu.Unlock()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	compactions := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := j.CompactWith(func() []Record {
			mu.Lock()
			defer mu.Unlock()
			recs := make([]Record, 0, len(acked))
			for id := range acked {
				recs = append(recs, submitRec(id, "h"))
			}
			return recs
		}); err != nil {
			t.Fatalf("compaction %d: %v", compactions, err)
		}
		compactions++
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, dir, Options{})
	replayed := make(map[string]bool, len(rep.Jobs))
	for _, jr := range rep.Jobs {
		replayed[jr.ID] = true
	}
	mu.Lock()
	defer mu.Unlock()
	lost := 0
	for id, ok := range acked {
		if ok && !replayed[id] {
			lost++
			t.Errorf("durably acknowledged record %s lost across %d compactions", id, compactions)
		}
	}
	if lost == 0 && len(replayed) < workers*each {
		t.Fatalf("replayed only %d of %d records", len(replayed), workers*each)
	}
}

// A finish record arriving before its submit (the buffered/durable
// write race around a crash) still folds into a terminal job.
func TestFoldOrderTolerance(t *testing.T) {
	res := newReplayResult()
	res.fold(finishRec("job-000007", StateDone))
	res.fold(Record{Type: TypeStart, ID: "job-000007"})
	res.fold(submitRec("job-000007", "h"))
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs: %+v", res.Jobs)
	}
	jr := res.Jobs[0]
	if jr.State != StateDone || jr.Spec == nil || jr.Hash != "h" {
		t.Fatalf("folded job: %+v", jr)
	}
	// A second terminal record is counted, not applied.
	res.fold(finishRec("job-000007", StateFailed))
	if jr.State != StateDone || res.Stats.DuplicateTerm != 1 {
		t.Fatalf("duplicate terminal handling: state=%s stats=%+v", jr.State, res.Stats)
	}
}

// LastUse ranks each netlist by its last use in record order: its own
// record, or a submit naming it as the job's netlist or, just before
// that, as the delta's base. A submit that precedes the netlist's
// record (a compaction writes jobs first) leaves the record's rank.
func TestReplayRanksNetlistsByLastUse(t *testing.T) {
	res := newReplayResult()
	for _, h := range []string{"aa", "bb", "cc"} {
		res.fold(Record{Type: TypeNetlist, Hash: h, Netlist: []byte("net n1 a b\n")})
	}
	delta := submitRec("job-000001", "cc")
	delta.Spec = &JobSpec{Kind: "delta", BaseHash: "aa"}
	res.fold(delta)
	res.fold(submitRec("job-000002", "dd"))
	res.fold(Record{Type: TypeNetlist, Hash: "dd", Netlist: []byte("net n1 a b\n")})
	rank := map[string]int{}
	for _, nr := range res.Netlists {
		rank[nr.Hash] = nr.LastUse
	}
	if !(rank["bb"] < rank["aa"] && rank["aa"] < rank["cc"] && rank["cc"] < rank["dd"]) {
		t.Fatalf("LastUse ranks = %v, want bb < aa < cc < dd", rank)
	}
}

// Implausible record lengths are treated as corruption, not allocated.
func TestImplausibleLengthIsCorruption(t *testing.T) {
	dir := t.TempDir()
	data := []byte(segMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(maxRecordBytes+1))
	data = append(data, hdr[:]...)
	data = append(data, []byte("xxxxxxxxxxxxxxxx")...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, dir, Options{})
	if rep.Stats.CorruptRecords == 0 {
		t.Fatalf("implausible length not flagged: %+v", rep.Stats)
	}
}
