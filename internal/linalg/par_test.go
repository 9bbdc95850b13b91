package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randomCSR(n, nnzPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	var ts []Triplet
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			ts = append(ts, Triplet{Row: i, Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
	}
	return NewCSR(n, n, ts)
}

func randomVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// The parallel MatVec kernels must reproduce the serial ones bitwise at
// every worker count: rows are disjoint and each row's accumulation
// order is unchanged.
func TestCSRMatVecParBitwiseEqualsSerial(t *testing.T) {
	for _, n := range []int{1, 17, 700, 3000, 2*matVecRowGrain + 17} {
		c := randomCSR(n, 6, int64(n))
		x := randomVec(n, 2)
		want := make([]float64, n)
		c.MatVec(x, want)
		for _, workers := range []int{1, 2, 4, 9} {
			got := make([]float64, n)
			c.MatVecPar(x, got, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: y[%d] = %v, serial %v", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDenseMatVecParBitwiseEqualsSerial(t *testing.T) {
	const n = 300
	m := NewDense(n, n)
	rng := rand.New(rand.NewSource(5))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := randomVec(n, 7)
	want := make([]float64, n)
	m.MatVec(x, want)
	for _, workers := range []int{1, 3, 8} {
		got := make([]float64, n)
		m.MatVecPar(x, got, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: y[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestParOperatorWrapsAndUnwraps(t *testing.T) {
	// Above the sharding cutoff: two or more MatVec shards.
	n := 2 * matVecRowGrain
	c := randomCSR(n, 4, 1)
	x := randomVec(n, 3)
	want := make([]float64, n)
	c.MatVec(x, want)

	p := Par(c, 4)
	if p == Operator(c) {
		t.Fatal("Par(c, 4) did not wrap")
	}
	if Unwrap(p) != Operator(c) {
		t.Fatal("Unwrap did not recover the CSR")
	}
	if p.Dim() != n {
		t.Fatalf("wrapped Dim = %d", p.Dim())
	}
	got := make([]float64, n)
	p.MatVec(x, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrapped MatVec differs at %d", i)
		}
	}
	if Par(c, 1) != Operator(c) {
		t.Error("Par with workers=1 should return the operator unchanged")
	}
	if Unwrap(c) != Operator(c) {
		t.Error("Unwrap of an unwrapped operator should be the identity")
	}
	// At or below the cutoff the operator fits one shard and stays
	// serial at any worker count.
	small := randomCSR(matVecRowGrain, 4, 2)
	if Par(small, 4) != Operator(small) {
		t.Errorf("Par wrapped a %d-row operator that fits one shard", matVecRowGrain)
	}
}

// BenchmarkMatVecCrossover times a CSR MatVec serially and sharded
// across two workers on either side of matVecRowGrain; the sharded
// variant ignores the grain, so the benchmark shows where sharding
// starts to pay. The grain is set at the crossover it measures:
//
//	go test -run '^$' -bench MatVecCrossover -benchmem -count 5 ./internal/linalg/
func BenchmarkMatVecCrossover(b *testing.B) {
	for _, n := range []int{1000, 2000, 3014, 4096, 6000, 10000} {
		c := randomCSR(n, 8, int64(n))
		x := randomVec(n, 1)
		y := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.MatVec(x, y)
			}
		})
		b.Run(fmt.Sprintf("n=%d/workers=2", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.matVecGrain(x, y, 2, 1)
			}
		})
	}
}

// OrthogonalizeBlock must be bitwise worker-invariant and must actually
// orthogonalize: after the call, v ⊥ every basis row to working
// precision.
func TestOrthogonalizeBlockWorkerInvariantAndOrthogonal(t *testing.T) {
	// Long enough to shard: shorter vectors take the serial path at
	// every worker count.
	const n, m = 2 * matVecRowGrain, 12
	basis := make([][]float64, 0, m)
	for b := 0; b < m; b++ {
		v := randomVec(n, int64(100+b))
		Orthogonalize(v, basis)
		Normalize(v)
		basis = append(basis, v)
	}
	ref := randomVec(n, 999)
	want := CopyVec(ref)
	OrthogonalizeBlock(want, basis, 1)
	for _, b := range basis {
		if d := math.Abs(Dot(want, b)); d > 1e-10 {
			t.Fatalf("residual projection %v after OrthogonalizeBlock", d)
		}
	}
	for _, workers := range []int{2, 3, 8} {
		got := CopyVec(ref)
		OrthogonalizeBlock(got, basis, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: v[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestOrthogonalizeBlockEmptyBasis(t *testing.T) {
	v := randomVec(10, 1)
	want := CopyVec(v)
	OrthogonalizeBlock(v, nil, 4)
	for i := range want {
		if v[i] != want[i] {
			t.Fatal("empty basis modified v")
		}
	}
}
