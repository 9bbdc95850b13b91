package linalg

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// Triplet is a coordinate-format matrix entry used while assembling a CSR
// matrix. Duplicate (Row, Col) entries are summed during assembly.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. It is immutable after assembly.
type CSR struct {
	N, M   int       // rows, cols
	RowPtr []int     // len N+1
	ColIdx []int     // len nnz
	Val    []float64 // len nnz
}

// NewCSR assembles an n×m CSR matrix from triplets. Duplicates are summed;
// explicit zeros that result from cancellation are retained (they do not
// affect results, only storage).
func NewCSR(n, m int, ts []Triplet) *CSR {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= m {
			panic(fmt.Sprintf("linalg: triplet (%d,%d) out of range for %d×%d", t.Row, t.Col, n, m))
		}
	}
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	c := &CSR{N: n, M: m, RowPtr: make([]int, n+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j = j + 1
		}
		c.ColIdx = append(c.ColIdx, sorted[i].Col)
		c.Val = append(c.Val, v)
		c.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < n; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	return c
}

// Dim returns the number of rows.
func (c *CSR) Dim() int { return c.N }

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.Val) }

// At returns the value at (i, j), or 0 if no entry is stored there.
// It runs a binary search within row i.
func (c *CSR) At(i, j int) float64 {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	k := sort.SearchInts(c.ColIdx[lo:hi], j) + lo
	if k < hi && c.ColIdx[k] == j {
		return c.Val[k]
	}
	return 0
}

// MatVec computes y = c·x. y must have length c.N and must not alias x.
func (c *CSR) MatVec(x, y []float64) {
	if len(x) != c.M || len(y) != c.N {
		panic(fmt.Sprintf("linalg: CSR MatVec dimension mismatch (%d×%d)·%d -> %d",
			c.N, c.M, len(x), len(y)))
	}
	for i := 0; i < c.N; i++ {
		var s float64
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			s += c.Val[k] * x[c.ColIdx[k]]
		}
		y[i] = s
	}
}

// MatVecPar is MatVec with the rows sharded across up to workers
// goroutines (0 uses the process default; see internal/parallel). Each
// row is accumulated by exactly one worker in the same left-to-right
// order as MatVec, and rows write disjoint entries of y, so the result
// is bitwise identical to MatVec at every worker count.
func (c *CSR) MatVecPar(x, y []float64, workers int) {
	c.matVecGrain(x, y, workers, matVecRowGrain)
}

// matVecGrain is MatVecPar with an explicit minimum rows per shard, so
// the crossover benchmark can time sharding below matVecRowGrain.
func (c *CSR) matVecGrain(x, y []float64, workers, grain int) {
	if len(x) != c.M || len(y) != c.N {
		panic(fmt.Sprintf("linalg: CSR MatVec dimension mismatch (%d×%d)·%d -> %d",
			c.N, c.M, len(x), len(y)))
	}
	parallel.For(workers, c.N, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
				s += c.Val[k] * x[c.ColIdx[k]]
			}
			y[i] = s
		}
	})
}

// Diag returns a copy of the diagonal of a square CSR matrix.
func (c *CSR) Diag() []float64 {
	if c.N != c.M {
		panic("linalg: Diag of non-square matrix")
	}
	d := make([]float64, c.N)
	for i := range d {
		d[i] = c.At(i, i)
	}
	return d
}

// ToDense expands the CSR matrix to a dense matrix.
func (c *CSR) ToDense() *Dense {
	d := NewDense(c.N, c.M)
	for i := 0; i < c.N; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			d.Set(i, c.ColIdx[k], c.Val[k])
		}
	}
	return d
}

// RowNNZ returns the number of stored entries in row i.
func (c *CSR) RowNNZ(i int) int { return c.RowPtr[i+1] - c.RowPtr[i] }

// Operator is the minimal interface the iterative solvers need: a square
// linear operator with a matrix-vector product.
type Operator interface {
	Dim() int
	MatVec(x, y []float64)
}

var (
	_ Operator = (*CSR)(nil)
	_ Operator = (*Dense)(nil)
)
