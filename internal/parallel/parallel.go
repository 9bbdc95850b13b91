// Package parallel is the shared sharding/worker helper behind the
// repository's parallel numerical kernels (row-sharded MatVec, block
// Gram–Schmidt, MELO candidate scans, per-component eigensolves).
//
// The package enforces one discipline that every caller relies on:
// parallelism must never change results. A kernel built on For or Do
// must (a) write only to disjoint state per chunk/task, and (b) perform
// a fixed arithmetic sequence per chunk that does not depend on the
// worker count, reducing any cross-chunk accumulation in chunk-index
// order. Under that discipline the worker count only changes *who*
// computes each chunk, never *what* is computed — serial (workers = 1)
// and parallel runs are bitwise identical, which is what lets the
// partest equivalence suite demand exact orderings and partitions.
//
// The process-wide default worker count is Limit() (runtime.GOMAXPROCS
// unless overridden by SetLimit, e.g. from spectrald's -parallelism
// flag); per-call worker counts resolve through Workers.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// limit holds the process-wide worker cap; 0 means "unset, use
// runtime.GOMAXPROCS(0)".
var limit atomic.Int32

// Limit returns the process-wide default worker count: the last value
// passed to SetLimit, or runtime.GOMAXPROCS(0) if never set, so a
// process pinned to fewer threads than cores (GOMAXPROCS=1, a CPU
// quota) also runs its kernels on fewer workers.
func Limit() int {
	if v := limit.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// SetLimit sets the process-wide default worker count used when a
// kernel is invoked with workers <= 0. n <= 0 resets to
// runtime.GOMAXPROCS(0). Safe for concurrent use; kernels already running
// keep the worker count they resolved at entry.
func SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	limit.Store(int32(n))
}

// Workers resolves a requested parallelism level: anything below 1
// (0 = "automatic") resolves to Limit(), and explicit requests are
// clamped to the limit when one has been set with SetLimit. The clamp
// is what makes an operator-facing cap (spectrald's -parallelism flag)
// actually bound per-job worker counts arriving through job options —
// without it an explicit per-job request overrode the process cap.
// When no limit has been set, explicit requests pass through unclamped
// (the GOMAXPROCS default is a sizing hint, not an operator instruction;
// equivalence and race tests legitimately run more workers than cores).
func Workers(requested int) int {
	if requested >= 1 {
		if v := limit.Load(); v > 0 && requested > int(v) {
			return int(v)
		}
		return requested
	}
	return Limit()
}

// chunksPerWorker oversubscribes chunks relative to workers so dynamic
// scheduling can balance uneven per-index cost (e.g. CSR rows with
// varying nnz) without shrinking chunks below the grain.
const chunksPerWorker = 4

// plan splits [0,n) into chunks of at least grain indices, sized for
// the given worker count. It returns the chunk size and chunk count;
// the final chunk may be short.
func plan(workers, n, grain int) (size, count int) {
	if grain < 1 {
		grain = 1
	}
	if workers < 1 {
		workers = 1
	}
	size = (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if size < grain {
		size = grain
	}
	count = (n + size - 1) / size
	if count < 1 {
		count = 1
	}
	return size, count
}

// NumChunks returns the number of chunks For will split [0,n) into for
// the given workers and grain, so reductions can preallocate one slot
// per chunk and combine them in chunk order (the deterministic-reduce
// pattern; see the package comment). It resolves workers exactly as For
// does (including the Workers clamp), so the two agree for any request
// as long as the limit does not change between the calls.
func NumChunks(workers, n, grain int) int {
	if n <= 0 {
		return 0
	}
	_, count := plan(Workers(workers), n, grain)
	return count
}

// For runs fn over [0,n) split into contiguous chunks of at least grain
// indices, on at most workers goroutines (0 resolves to Limit()). fn
// receives the chunk index (0-based, increasing with lo) and the
// half-open range [lo, hi). Chunk boundaries depend only on (workers,
// n, grain) — never on timing — so per-chunk partial results indexed by
// chunk are reproducible; chunk-to-goroutine assignment is dynamic and
// is NOT reproducible, so fn must not touch shared non-chunk state.
//
// When the resolved worker count is 1, or the range fits one chunk,
// fn runs on the calling goroutine, and For itself performs no heap
// allocations — the goroutine machinery lives in forChunks so the
// serial fast path (the common case inside reorthogonalization and
// other per-iteration kernels) stays allocation-free.
func For(workers, n, grain int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	size, count := plan(workers, n, grain)
	// Sharding has no context; utilization reporting goes through the
	// process-global tracer. Per-chunk spans only exist behind the
	// tracer's sampling flag (trace.Tracer.SetChunkSampling) — they are
	// the one per-iteration instrumentation in the repository. The
	// span wrapper is a heap-allocated closure, so it is only built when
	// sampling is actually on; counters alone are atomic adds. The
	// wrapper observes chunks, never reorders them: the determinism
	// discipline above is untouched.
	if tr := trace.Active(); tr != nil {
		tr.Add("parallel.chunks", int64(count))
		tr.SetGauge("parallel.workers", float64(workers))
		if tr.ChunkSamplingEnabled() {
			inner := fn
			fn = func(c, lo, hi int) {
				if sp := tr.ChunkSpan("parallel.chunk"); sp != nil {
					inner(c, lo, hi)
					sp.End()
					return
				}
				inner(c, lo, hi)
			}
		}
	}
	if workers == 1 || count == 1 {
		for c := 0; c < count; c++ {
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
		return
	}
	forChunks(workers, n, size, count, fn)
}

// forChunks is For's multi-goroutine path. It is a separate function so
// its synchronization state (captured by the worker closures, hence
// heap-allocated at entry) does not burden For's serial fast path.
func forChunks(workers, n, size, count int, fn func(chunk, lo, hi int)) {
	if workers > count {
		workers = count
	}
	var next atomic.Int32
	var pan panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer pan.capture()
			for {
				c := int(next.Add(1)) - 1
				if c >= count {
					return
				}
				lo := c * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				fn(c, lo, hi)
			}
		}()
	}
	wg.Wait()
	pan.repanic()
}

// Do runs the tasks on at most workers goroutines (0 resolves to
// Limit()). Tasks must be independent: they may run in any order and
// concurrently with each other. With a resolved worker count of 1 (or
// a single task) the tasks run sequentially, in order, on the calling
// goroutine.
func Do(workers int, tasks ...func()) {
	workers = Workers(workers)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if tr := trace.Active(); tr != nil {
		tr.Add("parallel.tasks", int64(len(tasks)))
	}
	if workers <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var next atomic.Int32
	var pan panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer pan.capture()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				tasks[i]()
			}
		}()
	}
	wg.Wait()
	pan.repanic()
}

// panicBox carries the first panic observed in a worker goroutine back
// to the calling goroutine, so the pipeline's recover-based hardening
// (spectral's pipeline.protect) still sees panics
// raised inside parallel kernels. A worker that panics stops consuming
// chunks; the remaining workers finish theirs before the re-panic.
type panicBox struct {
	once sync.Once
	val  any
	set  atomic.Bool
}

// capture is deferred in every worker; it stores the first panic value.
func (p *panicBox) capture() {
	if r := recover(); r != nil {
		p.once.Do(func() {
			p.val = r
			p.set.Store(true)
		})
	}
}

// repanic re-raises the captured panic, if any, on the caller.
func (p *panicBox) repanic() {
	if p.set.Load() {
		panic(p.val)
	}
}
