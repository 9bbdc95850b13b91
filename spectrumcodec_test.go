package spectral

import (
	"bytes"
	"context"
	"testing"
)

func codecNetlist(t testing.TB) *Netlist {
	t.Helper()
	h, err := GenerateBenchmark("prim1", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// Encode→Decode→Encode must be a fixed point: the decoded spectrum
// carries exactly the bits that were stored, for both clique models and
// a range of capacities.
func TestSpectrumCodecRoundTrip(t *testing.T) {
	h := codecNetlist(t)
	for _, model := range []Model{ModelPartitioningSpecific, ModelFrankle} {
		for _, d := range []int{1, 4, 10} {
			sp, err := DecomposeCtx(context.Background(), h, model, d)
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeSpectrum(sp)
			if err != nil {
				t.Fatalf("encode (%v, d=%d): %v", model, d, err)
			}
			got, err := DecodeSpectrum(data, h)
			if err != nil {
				t.Fatalf("decode (%v, d=%d): %v", model, d, err)
			}
			if got.Pairs() != sp.Pairs() || got.Model() != sp.Model() || got.Modules() != sp.Modules() {
				t.Fatalf("decoded shape (%d pairs, %v) != original (%d pairs, %v)",
					got.Pairs(), got.Model(), sp.Pairs(), sp.Model())
			}
			again, err := EncodeSpectrum(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("re-encode differs: codec is lossy for (%v, d=%d)", model, d)
			}
		}
	}
}

// A decoded spectrum must be usable exactly like the original: the
// partition computed from it is bit-identical.
func TestSpectrumCodecPartitionEquivalence(t *testing.T) {
	h := codecNetlist(t)
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 10)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSpectrum(sp)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSpectrum(data, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{K: 4, Method: MELO, D: 10}
	want, err := PartitionWithSpectrum(ctx, h, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PartitionWithSpectrum(ctx, h, dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Assign) != len(got.Assign) {
		t.Fatal("partition sizes differ")
	}
	for i := range want.Assign {
		if want.Assign[i] != got.Assign[i] {
			t.Fatalf("module %d assigned %d from original, %d from decoded", i, want.Assign[i], got.Assign[i])
		}
	}
}

// Decoding against the wrong netlist (different module count) must be
// rejected, not produce a spectrum for the wrong instance.
func TestSpectrumCodecWrongNetlistRejected(t *testing.T) {
	h := codecNetlist(t)
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSpectrum(sp)
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenerateBenchmark("prim1", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if other.NumModules() == h.NumModules() {
		t.Skip("benchmark scales collide; pick different scales")
	}
	if _, err := DecodeSpectrum(data, other); err == nil {
		t.Fatal("decode against a different netlist succeeded")
	}
}

func TestSpectrumCodecRejectsDamage(t *testing.T) {
	h := codecNetlist(t)
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSpectrum(sp)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"magicOnly": []byte(specMagic),
		"truncated": data[:len(data)-9],
		"extended":  append(append([]byte(nil), data...), 0, 0, 0),
		"badMagic":  append([]byte("NOTSPEC\n"), data[8:]...),
	}
	for name, bad := range cases {
		if _, err := DecodeSpectrum(bad, h); err == nil {
			t.Errorf("%s: decode succeeded on damaged input", name)
		}
	}
}

// FuzzStoreDecode feeds arbitrary bytes to the spectrum-store decode
// path. The contract: DecodeSpectrum never panics, never allocates
// unboundedly, and anything it accepts must re-encode — i.e. every
// accepted payload is a well-formed spectrum, so a corrupted store
// entry can never smuggle an inconsistent decomposition into the cache.
func FuzzStoreDecode(f *testing.F) {
	h, err := GenerateBenchmark("prim1", 0.06)
	if err != nil {
		f.Fatal(err)
	}
	sp, err := DecomposeCtx(context.Background(), h, ModelPartitioningSpecific, 4)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeSpectrum(sp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(specMagic))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSpectrum(data, h)
		if err != nil {
			return
		}
		if got.Modules() != h.NumModules() || got.Pairs() < 1 || got.Pairs() > got.Modules() {
			t.Fatalf("accepted inconsistent spectrum: %d modules, %d pairs", got.Modules(), got.Pairs())
		}
		if _, err := EncodeSpectrum(got); err != nil {
			t.Fatalf("accepted spectrum does not re-encode: %v", err)
		}
	})
}
