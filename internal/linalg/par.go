package linalg

import "repro/internal/parallel"

// Sharding grains for the parallel kernels: below these sizes the
// goroutine handoff costs more than the arithmetic it distributes.
const (
	// matVecRowGrain is the minimum rows per MatVec shard. It sits at
	// the measured serial-vs-sharded crossover of a CSR MatVec
	// (BenchmarkMatVecCrossover): on a 2-core Xeon VM two workers lose
	// to serial at every n up to 4096 (1000: 19–24 µs serial vs 26–31
	// µs sharded; 4096: 102–117 vs 125–151) and only break even near
	// n = 6000.
	matVecRowGrain = 4096
	// axpyGrain is the minimum vector elements per element-sharded
	// update (OrthogonalizeBlock's subtraction).
	axpyGrain = 2048
)

// oneShard reports whether an n-row kernel fits one MatVec shard at the
// given worker count. Par and OrthogonalizeBlockBuf both decide from it,
// so an operator is serial in every kernel or sharded in every kernel.
func oneShard(workers, n int) bool {
	return parallel.NumChunks(workers, n, matVecRowGrain) <= 1
}

// parOp wraps an operator whose MatVec is row-sharded; see Par.
type parOp struct {
	op      Operator
	workers int
}

// Par returns an operator whose MatVec runs row-sharded across up to
// workers goroutines. CSR and Dense operators shard natively; any other
// operator is returned unchanged (its MatVec internals are opaque).
// workers <= 1, or an operator that fits one MatVec shard, also returns
// the operator unchanged: sharding it would only add the goroutine
// handoff (and its per-call allocations). The wrapped MatVec is bitwise
// identical to the unwrapped one at every worker count.
func Par(a Operator, workers int) Operator {
	if workers <= 1 || oneShard(workers, a.Dim()) {
		return a
	}
	switch a.(type) {
	case *CSR, *Dense:
		return &parOp{op: a, workers: workers}
	}
	return a
}

// Unwrap returns the operator underneath a Par wrapper, or a itself.
// Densify and other structure-aware consumers use it to recover the
// concrete CSR/Dense representation.
func Unwrap(a Operator) Operator {
	if p, ok := a.(*parOp); ok {
		return p.op
	}
	return a
}

func (p *parOp) Dim() int { return p.op.Dim() }

func (p *parOp) MatVec(x, y []float64) {
	switch t := p.op.(type) {
	case *CSR:
		t.MatVecPar(x, y, p.workers)
	case *Dense:
		t.MatVecPar(x, y, p.workers)
	default:
		p.op.MatVec(x, y)
	}
}

// OrthogonalizeBlock subtracts from v its projections onto the rows of
// basis (assumed orthonormal) using two passes of block classical
// Gram–Schmidt: each pass computes every projection coefficient against
// a snapshot of v, then applies the combined subtraction. Two passes
// give the same "twice is enough" robustness as Orthogonalize.
//
// The kernel is built so the arithmetic is independent of workers: each
// coefficient is one serial left-to-right Dot computed by one worker,
// and the subtraction updates each element of v over the basis rows in
// index order regardless of how elements are sharded. Any workers value
// (including 1) therefore produces bitwise-identical results — the
// property the eigensolvers rely on for parallelism-invariant spectra.
//
// It differs from Orthogonalize only in using the pass snapshot for all
// coefficients where Orthogonalize re-reads v between basis rows; both
// leave v orthogonal to the basis to working precision.
func OrthogonalizeBlock(v []float64, basis [][]float64, workers int) {
	OrthogonalizeBlockBuf(v, basis, workers, nil)
}

// OrthogonalizeBlockBuf is OrthogonalizeBlock with a caller-provided
// coefficient buffer, so per-iteration callers (the Lanczos and block
// Krylov reorthogonalization loops) stay allocation-free. coef needs
// capacity len(basis); a nil or short coef allocates internally. The
// buffer is scratch only — its contents on return are meaningless.
func OrthogonalizeBlockBuf(v []float64, basis [][]float64, workers int, coef []float64) {
	m := len(basis)
	if m == 0 {
		return
	}
	if cap(coef) < m {
		coef = make([]float64, m)
	}
	coef = coef[:m]
	if parallel.Workers(workers) == 1 || oneShard(workers, len(v)) {
		// Serial fast path without the chunk closures: the literals
		// passed to parallel.For escape to the heap (For may hand them
		// to worker goroutines), which would make every
		// reorthogonalization event allocate. The arithmetic below is
		// the chunked arithmetic with one chunk — bitwise identical.
		for pass := 0; pass < 2; pass++ {
			for b := 0; b < m; b++ {
				coef[b] = Dot(v, basis[b])
			}
			for b := 0; b < m; b++ {
				c, row := coef[b], basis[b]
				for i := range v {
					v[i] -= c * row[i]
				}
			}
		}
		return
	}
	orthogonalizeBlockPar(v, basis, workers, coef)
}

// orthogonalizeBlockPar is OrthogonalizeBlockBuf's sharded path. It is
// a separate function so its escaping chunk closures do not force the
// caller's locals (notably coef) onto the heap on the serial path.
func orthogonalizeBlockPar(v []float64, basis [][]float64, workers int, coef []float64) {
	m := len(basis)
	for pass := 0; pass < 2; pass++ {
		// Coefficients: one whole-vector dot per basis row, each serial.
		parallel.For(workers, m, 1, func(_, lo, hi int) {
			for b := lo; b < hi; b++ {
				coef[b] = Dot(v, basis[b])
			}
		})
		// Subtraction: shard the elements of v; each element accumulates
		// its update over the basis rows in index order, matching the
		// serial subtraction order bit for bit.
		parallel.For(workers, len(v), axpyGrain, func(_, lo, hi int) {
			for b := 0; b < m; b++ {
				c, row := coef[b], basis[b]
				for i := lo; i < hi; i++ {
					v[i] -= c * row[i]
				}
			}
		})
	}
}
