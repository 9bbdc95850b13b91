package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

func TestLimitDefaultsToGOMAXPROCS(t *testing.T) {
	SetLimit(0)
	if got := Limit(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Limit() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	// The default follows GOMAXPROCS, not the core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Limit(); got != 1 {
		t.Errorf("Limit() = %d under GOMAXPROCS=1, want 1", got)
	}
}

func TestSetLimitRoundTrip(t *testing.T) {
	defer SetLimit(0)
	SetLimit(3)
	if got := Limit(); got != 3 {
		t.Errorf("Limit() = %d after SetLimit(3)", got)
	}
	SetLimit(-5)
	if got := Limit(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Limit() = %d after SetLimit(-5), want GOMAXPROCS", got)
	}
}

func TestWorkersResolution(t *testing.T) {
	defer SetLimit(0)
	SetLimit(4)
	for _, tc := range []struct{ req, want int }{
		{0, 4}, {-1, 4}, {1, 1}, {4, 4}, {7, 4}, // explicit requests clamp to the set limit
	} {
		if got := Workers(tc.req); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
	// Without an explicit limit the clamp is off: explicit requests pass
	// through even above GOMAXPROCS (equivalence tests rely on this).
	SetLimit(0)
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) with no limit = %d, want 7", got)
	}
}

// TestWorkersClampBoundsJobRequests is the regression test for the
// spectrald scenario: the daemon caps process parallelism via SetLimit
// (its -parallelism flag), and a job arrives requesting more workers
// through its own options. The per-job request must not override the
// operator's cap.
func TestWorkersClampBoundsJobRequests(t *testing.T) {
	defer SetLimit(0)
	SetLimit(2) // operator: at most 2 workers for this process
	if got := Workers(16); got != 2 {
		t.Fatalf("explicit job request for 16 workers resolved to %d under SetLimit(2), want 2", got)
	}
	// The resolved count also governs For's fan-out: no chunk may
	// observe a worker index implying more than the cap... workers are
	// anonymous in For, so assert via the chunk plan instead: the count
	// For actually uses equals Workers(16).
	if NumChunks(16, 1000, 1) != NumChunks(2, 1000, 1) {
		t.Fatalf("For's chunk plan for an explicit 16-worker request does not match the clamped plan")
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		for _, n := range []int{0, 1, 7, 100, 1001} {
			var touched []int32
			if n > 0 {
				touched = make([]int32, n)
			}
			For(workers, n, 3, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&touched[i], 1)
				}
			})
			for i, c := range touched {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d touched %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForChunkBoundariesIgnoreTiming(t *testing.T) {
	// Chunk index must map to a fixed [lo,hi) for fixed (workers, n,
	// grain), regardless of which goroutine runs it.
	const workers, n, grain = 4, 503, 16
	count := NumChunks(workers, n, grain)
	type span struct{ lo, hi int }
	ref := make([]span, count)
	For(workers, n, grain, func(c, lo, hi int) { ref[c] = span{lo, hi} })
	for trial := 0; trial < 10; trial++ {
		got := make([]span, count)
		For(workers, n, grain, func(c, lo, hi int) { got[c] = span{lo, hi} })
		for c := range ref {
			if got[c] != ref[c] {
				t.Fatalf("trial %d chunk %d: got %v, want %v", trial, c, got[c], ref[c])
			}
		}
	}
}

func TestNumChunksMatchesFor(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 64, 999} {
			var calls atomic.Int32
			For(workers, n, 10, func(_, _, _ int) { calls.Add(1) })
			if int(calls.Load()) != NumChunks(workers, n, 10) {
				t.Errorf("workers=%d n=%d: For made %d chunks, NumChunks says %d",
					workers, n, calls.Load(), NumChunks(workers, n, 10))
			}
		}
	}
}

func TestForRespectsGrain(t *testing.T) {
	// Every chunk except possibly the last must hold >= grain indices.
	const n, grain = 1000, 64
	For(8, n, grain, func(c, lo, hi int) {
		if hi-lo < grain && hi != n {
			panic("short interior chunk")
		}
	})
}

// TestForSerialNoAllocsWhenSamplingOff: with a process-global tracer
// installed but chunk sampling disabled (the production spectrald
// configuration), the serial fast path of For must not allocate — in
// particular it must not build the chunk-span wrapper closure, and its
// goroutine machinery must stay out of the serial path's frame. This
// pins down the regression where every kernel invocation heap-allocated
// even at workers = 1.
func TestForSerialNoAllocsWhenSamplingOff(t *testing.T) {
	tr := trace.New()
	trace.SetGlobal(tr)
	defer trace.SetGlobal(nil)
	data := make([]float64, 4096)
	fn := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		For(1, len(data), 64, fn)
	}); allocs != 0 {
		t.Fatalf("serial For with sampling off: %v allocs per call, want 0", allocs)
	}
	// Flipping sampling on must restore chunk spans (the wrapper is
	// gated, not removed).
	tr.SetChunkSampling(1)
	For(1, len(data), 64, fn)
	if got := tr.Counter("parallel.chunks"); got == 0 {
		t.Fatal("chunk counter not advanced with sampling on")
	}
}

// BenchmarkForSerialTracerOff measures the disabled-instrumentation
// overhead budget of the serial fast path (tracer installed, sampling
// off — the spectrald steady state).
func BenchmarkForSerialTracerOff(b *testing.B) {
	tr := trace.New()
	trace.SetGlobal(tr)
	defer trace.SetGlobal(nil)
	data := make([]float64, 4096)
	fn := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(1, len(data), 64, fn)
	}
}

func TestDoRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var ran [20]int32
		tasks := make([]func(), len(ran))
		for i := range tasks {
			i := i
			tasks[i] = func() { atomic.AddInt32(&ran[i], 1) }
		}
		Do(workers, tasks...)
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoEmpty(t *testing.T) {
	Do(4) // must not hang or panic
}
