package speccache

import (
	"context"
	"testing"

	spectral "repro"
	"repro/internal/specstore"
)

// Fresh caches on one store solve a key once: a request for more pairs
// than the stored entry holds solves, and its write-through replaces
// the smaller entry (the store refuses no put), so every later fresh
// cache is served from the store.
func TestFreshCachesOnOneStoreSolveOnce(t *testing.T) {
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
	if err := store.Put(key, specstore.Entry{Pairs: small.Pairs(), Data: data}); err != nil {
		t.Fatal(err)
	}

	solves := 0
	solve := func(ctx context.Context, pairs int) (*spectral.Spectrum, error) {
		solves++
		return spectral.DecomposeCtx(ctx, h, model, pairs-1)
	}
	want := small.Pairs() + 2
	for i := 0; i < 3; i++ {
		sp, err := New(4, store).Spectrum(context.Background(), h, key, want, solve)
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
