package speccache

import (
	"context"
	"errors"
	"testing"

	spectral "repro"
	"repro/internal/specstore"
)

// A peer's offer for a netlist this cache does not hold is kept under
// the pair count its payload holds, not the count the offer claims: the
// store never shrinks a key's slot, so an overstated claim would fail
// every later read of the key and refuse every write-through to it.
func TestAdoptWithoutNetlistStoresPayloadPairs(t *testing.T) {
	h, err := spectral.GenerateBenchmark("prim1", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	model := spectral.ModelPartitioningSpecific
	small, err := spectral.DecomposeCtx(context.Background(), h, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spectral.EncodeSpectrum(small)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Hash: Fingerprint(h), Model: model.String()}
	store, err := specstore.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if err := New(4, store).Adopt(key, small.Pairs(), data[:len(data)-8], nil); err == nil || errors.Is(err, ErrUnkept) {
		t.Fatalf("truncated offer: err = %v, want a payload error", err)
	}
	if err := New(4, store).Adopt(key, 50, data, nil); err != nil {
		t.Fatal(err)
	}
	if e, ok, _ := store.Get(key); !ok || e.Pairs != small.Pairs() {
		t.Fatalf("store holds %d pairs, want the payload's %d", e.Pairs, small.Pairs())
	}

	solves := 0
	solve := func(ctx context.Context, pairs int) (*spectral.Spectrum, error) {
		solves++
		return spectral.DecomposeCtx(ctx, h, model, pairs-1)
	}
	want := small.Pairs() + 2
	for i := 0; i < 3; i++ {
		sp, err := New(4, store).Spectrum(context.Background(), h, key, want, false, solve)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Pairs() < want {
			t.Fatalf("fresh cache %d got %d pairs, want %d", i, sp.Pairs(), want)
		}
	}
	if solves != 1 {
		t.Errorf("three fresh caches solved %d times, want 1 then store hits", solves)
	}
	if st := store.Stats(); st.SkippedPuts != 0 {
		t.Errorf("store refused %d write-throughs", st.SkippedPuts)
	}
}
