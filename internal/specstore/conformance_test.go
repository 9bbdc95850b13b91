package specstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The conformance suite: every Store backend — current and future —
// must pass every check here. Backends are registered as factories
// returning the store, a "reboot" function simulating a process restart
// (nil when the backend has no persistence), and a flag for whether
// entries must survive that reboot.

type backendFixture struct {
	store      Store
	reboot     func(t *testing.T) Store // nil = not persistent
	persistent bool
}

func backends(t *testing.T) map[string]func(t *testing.T) backendFixture {
	return map[string]func(t *testing.T) backendFixture{
		"disk": func(t *testing.T) backendFixture {
			dir := t.TempDir()
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			return backendFixture{
				store: d,
				reboot: func(t *testing.T) Store {
					d2, err := OpenDisk(dir)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					return d2
				},
				persistent: true,
			}
		},
		// The disk backend behind a flaky device: every third Put fails
		// with an I/O error. Conformance still holds — failures surface
		// as errors, and reads return either a previously stored entry
		// or a miss, never damaged data.
		"faulty": func(t *testing.T) backendFixture {
			dir := t.TempDir()
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			return backendFixture{store: &faultyStore{inner: d, failEvery: 3}}
		},
	}
}

// faultyStore models an unreliable device at the Store boundary.
type faultyStore struct {
	inner     Store
	mu        sync.Mutex
	puts      int
	failEvery int
}

func (f *faultyStore) Put(key Key, e Entry) error {
	f.mu.Lock()
	f.puts++
	fail := f.puts%f.failEvery == 0
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("faulty: injected write failure")
	}
	return f.inner.Put(key, e)
}

func (f *faultyStore) Get(key Key) (Entry, bool, error) { return f.inner.Get(key) }
func (f *faultyStore) Len() int                         { return f.inner.Len() }
func (f *faultyStore) Stats() Stats                     { return f.inner.Stats() }
func (f *faultyStore) Close() error                     { return f.inner.Close() }

func randomEntry(rng *rand.Rand, pairs int) Entry {
	data := make([]byte, 64+rng.Intn(256))
	rng.Read(data)
	return Entry{Pairs: pairs, Data: data}
}

func key(i int) Key {
	return Key{Hash: fmt.Sprintf("sha256:%064d", i), Model: "partitioning-specific"}
}

func TestConformance(t *testing.T) {
	for name, factory := range backends(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) { conformRoundTrip(t, factory(t)) })
			t.Run("CapacityOnlyGrows", func(t *testing.T) { conformCapacity(t, factory(t)) })
			t.Run("EmptyStore", func(t *testing.T) { conformEmpty(t, factory(t)) })
			t.Run("Concurrency", func(t *testing.T) { conformConcurrency(t, factory(t)) })
			t.Run("Reboot", func(t *testing.T) { conformReboot(t, factory(t)) })
		})
	}
}

// conformRoundTrip: what you Put is what you Get, bit for bit, and
// Len agrees. A faulty backend may refuse a Put (with an error, not
// silently) — a refused Put must behave as if it never happened.
func conformRoundTrip(t *testing.T, fx backendFixture) {
	s := fx.store
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	want := make(map[Key]Entry)
	for i := 0; i < 32; i++ {
		k := key(i)
		e := randomEntry(rng, 2+rng.Intn(10))
		if err := s.Put(k, e); err != nil {
			continue // injected failure: key must stay absent
		}
		want[k] = e
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	for i := 0; i < 32; i++ {
		k := key(i)
		e, stored := want[k]
		got, ok, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%v): %v", k, err)
		}
		if ok != stored {
			t.Fatalf("Get(%v) ok = %v, want %v", k, ok, stored)
		}
		if stored && (got.Pairs != e.Pairs || !bytes.Equal(got.Data, e.Data)) {
			t.Errorf("Get(%v) returned different bytes than Put stored", k)
		}
	}
}

// conformCapacity: overwriting with fewer pairs is a no-op, with more
// pairs replaces.
func conformCapacity(t *testing.T, fx backendFixture) {
	s := fx.store
	defer s.Close()
	k := key(0)
	big := Entry{Pairs: 8, Data: []byte("eight-pairs-payload")}
	small := Entry{Pairs: 2, Data: []byte("two-pairs-payload")}
	mustPut := func(e Entry) {
		t.Helper()
		for i := 0; i < 8; i++ { // outlast any injected failure cadence
			if err := s.Put(k, e); err == nil {
				return
			}
		}
		t.Fatalf("Put(%d pairs) kept failing", e.Pairs)
	}
	mustPut(big)
	mustPut(small) // must not regress
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after downgrade attempt: ok=%v err=%v", ok, err)
	}
	if got.Pairs != 8 || !bytes.Equal(got.Data, big.Data) {
		t.Fatalf("smaller Put regressed the entry: got %d pairs", got.Pairs)
	}
	bigger := Entry{Pairs: 12, Data: []byte("twelve-pairs-payload")}
	mustPut(bigger)
	got, ok, _ = s.Get(k)
	if !ok || got.Pairs != 12 || !bytes.Equal(got.Data, bigger.Data) {
		t.Fatalf("larger Put did not replace: got %d pairs", got.Pairs)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrites of one key, want 1", s.Len())
	}
}

// conformEmpty: a fresh store misses politely everywhere.
func conformEmpty(t *testing.T, fx backendFixture) {
	s := fx.store
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("fresh store Len = %d", s.Len())
	}
	if _, ok, err := s.Get(key(0)); ok || err != nil {
		t.Fatalf("fresh store Get: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Misses == 0 {
		t.Fatal("miss not counted")
	}
}

// conformConcurrency: concurrent Put/Get/Stats on overlapping keys must
// be race-free (run under -race) and never yield torn reads.
func conformConcurrency(t *testing.T, fx backendFixture) {
	s := fx.store
	defer s.Close()
	// Payload content is derived from (key, pairs) so readers can verify
	// integrity no matter which writer won.
	payload := func(i, pairs int) []byte {
		return []byte(strings.Repeat(fmt.Sprintf("k%d-p%d.", i, pairs), 8))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 50; n++ {
				i := rng.Intn(4)
				pairs := 2 + rng.Intn(3)
				k := key(i)
				switch rng.Intn(3) {
				case 0:
					_ = s.Put(k, Entry{Pairs: pairs, Data: payload(i, pairs)})
				case 1:
					e, ok, err := s.Get(k)
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if ok && !bytes.Equal(e.Data, payload(i, e.Pairs)) {
						t.Errorf("torn read: key %d pairs %d", i, e.Pairs)
						return
					}
				case 2:
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

// conformReboot: a persistent backend serves identical bytes after a
// reopen; every backend starts serving again without error.
func conformReboot(t *testing.T, fx backendFixture) {
	s := fx.store
	rng := rand.New(rand.NewSource(7))
	stored := make(map[Key]Entry)
	for i := 0; i < 8; i++ {
		k, e := key(i), randomEntry(rng, 3+i)
		if err := s.Put(k, e); err == nil {
			stored[k] = e
		}
	}
	if fx.reboot == nil {
		s.Close()
		return
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := fx.reboot(t)
	defer s2.Close()
	if !fx.persistent {
		return
	}
	if got := s2.Len(); got != len(stored) {
		t.Fatalf("after reboot Len = %d, want %d", got, len(stored))
	}
	for k, e := range stored {
		got, ok, err := s2.Get(k)
		if err != nil || !ok {
			t.Fatalf("after reboot Get(%v): ok=%v err=%v", k, ok, err)
		}
		if got.Pairs != e.Pairs || !bytes.Equal(got.Data, e.Data) {
			t.Fatalf("after reboot Get(%v) differs from what was stored", k)
		}
	}
}

// --- disk corruption: damaged entries are quarantined, never served ---

func diskWithEntry(t *testing.T) (*Disk, string, Key, Entry) {
	t.Helper()
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key(0)
	e := Entry{Pairs: 5, Data: bytes.Repeat([]byte("spectrum-payload"), 16)}
	if err := d.Put(k, e); err != nil {
		t.Fatal(err)
	}
	return d, filepath.Join(dir, entryFile(k)), k, e
}

func reopen(t *testing.T, d *Disk) *Disk {
	t.Helper()
	dir := d.Dir()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d2
}

func quarantineCount(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".quarantine") {
			n++
		}
	}
	return n
}

// A bit flip anywhere in the payload must fail the CRC: the entry is
// quarantined and reported as a miss, never returned damaged.
func TestDiskBitFlipQuarantined(t *testing.T) {
	d, path, k, _ := diskWithEntry(t)
	defer d.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-8] ^= 0x40 // inside the payload frame
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Get(k); ok || err != nil {
		t.Fatalf("Get on bit-flipped entry: ok=%v err=%v, want clean miss", ok, err)
	}
	if st := d.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if quarantineCount(t, d.Dir()) != 1 {
		t.Fatal("expected one .quarantine file for forensics")
	}
	// The key is gone, not poisoned: a fresh Put repairs it.
	if _, ok, _ := d.Get(k); ok {
		t.Fatal("quarantined key still served")
	}
}

// A torn write (crash mid-write leaving a truncated file under the live
// name — only reachable by hand, since Put renames atomically) must be
// quarantined on read and on reopen.
func TestDiskTornWriteQuarantined(t *testing.T) {
	d, path, k, _ := diskWithEntry(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Get(k); ok || err != nil {
		t.Fatalf("Get on torn entry: ok=%v err=%v, want clean miss", ok, err)
	}
	if st := d.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	d.Close()
}

// Trailing garbage after the frames is rejected with the same severity
// as a bad checksum.
func TestDiskTrailingGarbageQuarantined(t *testing.T) {
	d, path, k, _ := diskWithEntry(t)
	defer d.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("junk"))
	f.Close()
	if _, ok, err := d.Get(k); ok || err != nil {
		t.Fatalf("Get on entry with trailing bytes: ok=%v err=%v, want miss", ok, err)
	}
	if st := d.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// A store whose directory holds a corrupt entry must open (smaller, not
// dead) and quarantine the damage.
func TestDiskOpenQuarantinesCorruptHeader(t *testing.T) {
	d, path, k, e := diskWithEntry(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(diskMagic)+4] ^= 0xFF // header frame CRC byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A healthy sibling entry must survive the reopen.
	k2 := key(1)
	if err := d.Put(k2, e); err != nil {
		t.Fatal(err)
	}
	d2 := reopen(t, d)
	defer d2.Close()
	if d2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1 (corrupt entry dropped)", d2.Len())
	}
	if _, ok, _ := d2.Get(k); ok {
		t.Fatal("corrupt entry served after reopen")
	}
	if got, ok, _ := d2.Get(k2); !ok || !bytes.Equal(got.Data, e.Data) {
		t.Fatal("healthy entry lost in reopen")
	}
	if st := d2.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// A file renamed to the wrong key's name (operator error, cross-linked
// restore) is detected by the header/key cross-check.
func TestDiskWrongKeyQuarantined(t *testing.T) {
	d, path, _, e := diskWithEntry(t)
	defer d.Close()
	other := key(9)
	wrongPath := filepath.Join(d.Dir(), entryFile(other))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrongPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := reopen(t, d)
	defer d2.Close()
	if got, ok, _ := d2.Get(other); ok {
		t.Fatalf("cross-linked entry served under wrong key (pairs %d, want miss)", got.Pairs)
	}
	_ = e
}
