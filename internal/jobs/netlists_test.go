package jobs

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	spectral "repro"
)

// storedHashes lists the store's hashes, least recently used first.
func storedHashes(p *Pool) []string {
	var hashes []string
	for _, st := range p.Netlists() {
		hashes = append(hashes, st.Hash)
	}
	return hashes
}

// The store evicts the least recently used netlist, a lookup or re-add
// is a use, and a compaction carries the store's order of use across a
// restart, even with a running job whose netlist is not stored.
func TestNetlistStoreLRUSurvivesCompaction(t *testing.T) {
	defer leakCheck(t)()
	dir := t.TempDir()
	jnl, _ := openJournal(t, dir)
	p1 := NewPool(Config{Workers: 1, Journal: jnl, MaxNetlists: 3})
	p1.runFn = func(ctx context.Context, j *Job) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	p1.Start()
	var (
		hashes []string
		first  *spectral.Netlist
	)
	for seed := int64(1); seed <= 5; seed++ {
		h, err := spectral.GenerateBenchmarkSeeded("prim1", 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 5 {
			// A job submitted on the pool directly does not store its
			// netlist; the compaction must journal it all the same.
			j, err := p1.Submit(Request{Netlist: h, Kind: KindOrder})
			if err != nil {
				t.Fatal(err)
			}
			for j.State() != Running {
				time.Sleep(time.Millisecond)
			}
			break
		}
		st, err := p1.AddNetlist("prim1", h)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, st.Hash)
		switch seed {
		case 1:
			first = h
		case 2:
			// Re-adding the first netlist makes it newer than the second.
			if _, err := p1.AddNetlist("prim1", first); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := []string{hashes[0], hashes[2], hashes[3]}; !reflect.DeepEqual(storedHashes(p1), want) {
		t.Fatalf("store = %v, want %v", storedHashes(p1), want)
	}
	if _, _, ok := p1.Netlist(hashes[1]); ok {
		t.Fatal("least recently used netlist was not evicted")
	}
	if _, _, ok := p1.Netlist(hashes[2]); !ok {
		t.Fatal("stored netlist not found")
	}
	want := []string{hashes[0], hashes[3], hashes[2]}
	if got := storedHashes(p1); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a lookup the store = %v, want %v", got, want)
	}
	if err := p1.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	// "Crash" with the job still running.
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = p1.Shutdown(expired)

	jnl2, rep := openJournal(t, dir)
	defer jnl2.Close()
	p2 := NewPool(Config{Workers: 1, Journal: jnl2, MaxNetlists: 3})
	p2.runFn = func(ctx context.Context, j *Job) (*Result, error) { return &Result{}, nil }
	stats, err := p2.Restore(rep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Netlists != len(want)+1 || stats.Reenqueued != 1 {
		t.Errorf("restore stats = %+v, want %d netlists and the running job re-enqueued", stats, len(want)+1)
	}
	if got := storedHashes(p2); !reflect.DeepEqual(got, want) {
		t.Errorf("after restart the store = %v, want %v", got, want)
	}
	p2.Start()
	if err := p2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Concurrent adds, lookups, listings and compactions keep the store's
// map and order consistent and within its bound.
func TestNetlistStoreConcurrent(t *testing.T) {
	jnl, _ := openJournal(t, t.TempDir())
	defer jnl.Close()
	const bound = 3
	p := NewPool(Config{Workers: 1, Journal: jnl, MaxNetlists: bound})
	nets := make([]*spectral.Netlist, 8)
	for i := range nets {
		h, err := spectral.GenerateBenchmarkSeeded("prim1", 0.05, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = h
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				st, err := p.AddNetlist("prim1", nets[(g+i)%len(nets)])
				if err != nil {
					t.Error(err)
					return
				}
				p.Netlist(st.Hash)
				if n := len(p.Netlists()); n > bound {
					t.Errorf("store holds %d netlists, bound %d", n, bound)
				}
				if i%5 == 0 {
					if err := p.CompactJournal(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	listed := p.Netlists()
	if len(listed) != bound || len(p.netItems) != bound {
		t.Fatalf("store lists %d netlists and maps %d, want %d", len(listed), len(p.netItems), bound)
	}
	for _, st := range listed {
		if h, _, ok := p.Netlist(st.Hash); !ok || h == nil {
			t.Errorf("listed netlist %s not found", st.Hash)
		}
	}
	p.Start()
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
