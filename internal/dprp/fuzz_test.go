package dprp

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// dprpCase decodes a DP-RP instance from bytes:
//
//   - data[0] picks n in [2, 65] and data[1] picks K in [2, 8] (at most n);
//   - data[2]%4 picks the balance window: 0 the default module-count
//     window, 1 explicit MinSize/MaxSize, 2 heterogeneous areas with the
//     default area window, 3 heterogeneous areas with explicit
//     MinSize/MaxSize (the count window wins);
//   - data[3:] is the net stream: a size byte (1..6 pins) followed by
//     that many module bytes, taken mod n.
//
// The netlist is assembled directly rather than through a Builder, so it
// may hold single-pin nets and nets that repeat a module. The ordering is
// a permutation seeded from the whole input.
func dprpCase(data []byte) (*hypergraph.Hypergraph, []int, Options, bool) {
	if len(data) < 3 {
		return nil, nil, Options{}, false
	}
	n := 2 + int(data[0])%64
	k := 2 + int(data[1])%7
	if k > n {
		k = n
	}
	mode, tune := data[2]%4, int(data[2]>>2)
	var nets [][]int
	for rest := data[3:]; len(rest) > 0; {
		size := 1 + int(rest[0])%6
		rest = rest[1:]
		if size > len(rest) {
			break
		}
		net := make([]int, size)
		for t := range net {
			net[t] = int(rest[t]) % n
		}
		nets = append(nets, net)
		rest = rest[size:]
	}
	h := &hypergraph.Hypergraph{Names: make([]string, n), Nets: nets, NetNames: make([]string, len(nets))}
	opts := Options{K: k}
	if mode == 1 || mode == 3 {
		opts.MinSize = n/k - tune%3
		opts.MaxSize = (n+k-1)/k + (tune/3)%4
		if opts.MinSize < 1 {
			opts.MinSize = 1
		}
	}
	if mode >= 2 {
		areas := make([]float64, n)
		for i := range areas {
			areas[i] = 0.5 + float64(data[i%len(data)]%8)/2
		}
		if err := h.SetAreas(areas); err != nil {
			panic(err)
		}
	}
	hash := fnv.New64a()
	hash.Write(data)
	order := rand.New(rand.NewSource(int64(hash.Sum64()))).Perm(n)
	return h, order, opts, true
}

// checkMatchesReference runs PartitionCtx and referencePartition on one
// instance and fails unless both fail with the same error or return the
// same Splits and the same ScaledCost bit for bit.
func checkMatchesReference(t *testing.T, h *hypergraph.Hypergraph, order []int, opts Options) (ok bool) {
	t.Helper()
	got, err := Partition(h, order, opts)
	want, wantErr := referencePartition(h, order, opts)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("n=%d %+v: error %v, reference error %v", len(order), opts, err, wantErr)
	}
	if err != nil {
		return false
	}
	if got.ScaledCost != want.ScaledCost {
		t.Fatalf("n=%d %+v: ScaledCost %v, reference %v", len(order), opts, got.ScaledCost, want.ScaledCost)
	}
	if len(got.Splits) != len(want.Splits) {
		t.Fatalf("n=%d %+v: Splits %v, reference %v", len(order), opts, got.Splits, want.Splits)
	}
	for i := range got.Splits {
		if got.Splits[i] != want.Splits[i] {
			t.Fatalf("n=%d %+v: Splits %v, reference %v", len(order), opts, got.Splits, want.Splits)
		}
	}
	return true
}

// FuzzDPRPMatchesReference checks the incremental block costs against the
// original binary-search walk on fuzzer-shaped netlists (see dprpCase).
func FuzzDPRPMatchesReference(f *testing.F) {
	f.Add([]byte{10, 1, 0, 2, 0, 1, 3, 2, 3, 4})
	f.Add([]byte{20, 3, 1, 0, 5, 3, 7, 7, 7, 1, 9})
	f.Add([]byte{30, 6, 2, 4, 1, 2, 3, 4, 5, 0, 2, 8, 9})
	f.Add([]byte{7, 5, 7, 2, 1, 1, 1, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, order, opts, ok := dprpCase(data)
		if !ok {
			return
		}
		checkMatchesReference(t, h, order, opts)
	})
}
