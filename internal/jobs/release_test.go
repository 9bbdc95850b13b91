package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	spectral "repro"
	"repro/internal/journal"
	"repro/internal/speccache"
)

// netlistsOf reads a job's netlist fields under its lock.
func netlistsOf(j *Job) (h, base *spectral.Netlist) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.req.Netlist, j.req.base
}

// copyDir copies the regular files of src into a new directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// An in-memory pool's finished jobs drop their netlists too, a delta
// job both of its own; the base partition a delta job memoizes on the
// store entry holds packed labels only, so no netlist, spectrum or
// partition pointer outlives the job.
func TestFinishedJobReleasesNetlistInMemory(t *testing.T) {
	defer leakCheck(t)()
	base, dl, _ := deltaBase(t)
	p := NewPool(Config{Workers: 1, QueueDepth: 4})
	p.Start()
	defer p.Shutdown(context.Background())
	baseHash := storeBase(t, p, base)
	for _, req := range []Request{
		{Netlist: testNetlist(t), Kind: KindOrder, Opts: spectral.Options{D: 3}},
		{Kind: KindDelta, Opts: optsMELO(2), BaseHash: baseHash, Delta: dl},
	} {
		j, err := p.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if h, b := netlistsOf(j); h != nil || b != nil {
			t.Fatalf("finished %s job still references a netlist", req.Kind)
		}
	}

	p.netMu.Lock()
	m := p.netItems[baseHash].Value.(*netEntry).base
	p.netMu.Unlock()
	if m == nil || len(m.labels) != base.NumModules() {
		t.Fatalf("memo %+v, want %d packed labels", m, base.NumModules())
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("memo field %s is a %s", path, typ.Kind())
		case reflect.Slice:
			if typ != reflect.TypeOf(Labels(nil)) {
				t.Errorf("memo field %s is a %s, want only Labels", path, typ)
			}
		}
	}
	walk(reflect.TypeOf(*m), "basePartition")
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Finished jobs of every kind and terminal state drop their netlists,
// so a compaction journals netlists only for unfinished jobs — and a
// replay of the compacted journal restores every finished job's Status
// and Result byte for byte as a replay of the uncompacted one does.
func TestFinishedJobsReleaseNetlistsAcrossCompaction(t *testing.T) {
	defer leakCheck(t)()
	base, dl, _ := deltaBase(t)
	live, err := spectral.GenerateBenchmark("prim1", 0.07)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	p1 := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl})
	// Scheme-3 order jobs block until cancelled; everything else runs
	// the real pipeline.
	p1.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		if j.req.Kind == KindOrder && j.req.Opts.Scheme == 3 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return p1.run(ctx, j)
	}
	p1.Start()
	blocking := Request{Kind: KindOrder, Opts: spectral.Options{D: 3, Scheme: 3}}
	submit := func(req Request) *Job {
		t.Helper()
		j, err := p1.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	running := func(j *Job) {
		for j.State() != Running {
			time.Sleep(time.Millisecond)
		}
	}

	var finished []*Job
	for _, req := range []Request{
		{Netlist: base, Kind: KindOrder, Opts: spectral.Options{D: 3}},
		{Netlist: base, Opts: optsMELO(2)},
		{Kind: KindDelta, Opts: optsMELO(2), BaseHash: storeBase(t, p1, base), Delta: dl},
		{Netlist: base, Opts: optsMELO(3), Timeout: time.Nanosecond}, // fails: deadline
	} {
		j := submit(req)
		<-j.Done()
		finished = append(finished, j)
	}
	cancelled := blocking
	cancelled.Netlist = base
	j := submit(cancelled)
	running(j)
	j.Cancel()
	<-j.Done()
	finished = append(finished, j)
	for _, j := range finished {
		if h, b := netlistsOf(j); h != nil || b != nil {
			t.Fatalf("%s (%s) still references its netlist", j.ID(), j.State())
		}
	}
	states := map[State]bool{}
	for _, j := range finished {
		states[j.State()] = true
	}
	if !states[Done] || !states[Failed] || !states[Cancelled] {
		t.Fatalf("finished states %v, want done, failed and cancelled", states)
	}

	// One job still running at compaction: the only netlist journaled.
	pending := blocking
	pending.Netlist = live
	pj := submit(pending)
	running(pj)
	if h, _ := netlistsOf(pj); h != live {
		t.Fatal("running job lost its netlist")
	}
	// The delta job's base and mutant sit in the netlist store, which
	// the snapshot journals in its own right.
	stored := map[string]bool{}
	for _, st := range p1.Netlists() {
		stored[st.Hash] = true
	}
	var nets []string
	for _, r := range p1.snapshotRecords() {
		if r.Type == journal.TypeNetlist && !stored[r.Hash] {
			nets = append(nets, r.Hash)
		}
	}
	if want := speccache.Fingerprint(live); len(nets) != 1 || nets[0] != want {
		t.Fatalf("snapshot netlists beyond the store %v, want only the running job's %s", nets, want)
	}

	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	uncompacted := copyDir(t, dir)
	if err := p1.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	// "Crash" with the running job unfinished.
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p1.Shutdown(expired)

	replay := func(dir string) (*Pool, *journal.Journal) {
		jnl, rep := openJournal(t, dir)
		p := NewPool(Config{Workers: 1, QueueDepth: 8, Journal: jnl})
		stats, err := p.Restore(rep)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RecoveredTerminal != len(finished) || stats.Reenqueued != 1 {
			t.Fatalf("%s: restore stats %+v, want %d terminal and 1 re-enqueued", dir, stats, len(finished))
		}
		if rj, ok := p.Job(pj.ID()); !ok {
			t.Fatalf("%s: running job lost", dir)
		} else if h, _ := netlistsOf(rj); h == nil {
			t.Fatalf("%s: re-enqueued job has no netlist", dir)
		}
		return p, jnl
	}
	pa, ja := replay(uncompacted)
	pb, jb := replay(dir)
	for _, fj := range finished {
		a, _ := pa.Job(fj.ID())
		b, _ := pb.Job(fj.ID())
		if h, bh := netlistsOf(b); h != nil || bh != nil {
			t.Fatalf("replayed %s still references a netlist", fj.ID())
		}
		sa, err := json.Marshal(a.Status())
		if err != nil {
			t.Fatal(err)
		}
		sb, err := json.Marshal(b.Status())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sa, sb) {
			t.Fatalf("%s: status after compaction\n%s\nwant\n%s", fj.ID(), sb, sa)
		}
	}
	for _, p := range []*Pool{pa, pb} {
		p.Start()
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range []*journal.Journal{ja, jb} {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
