// Package trace is the repository's zero-dependency tracing and metrics
// layer: hierarchical spans with monotonic timings, named counters and
// gauges, and pluggable sinks for finished spans (an in-memory ring for
// tests and the daemon's /debug/trace dump, a JSON-lines writer for
// offline analysis; the spectrald /metrics endpoint renders the
// tracer's built-in aggregation as its Prometheus bridge).
//
// Design constraints, in order:
//
//  1. A disabled (or absent) tracer is a no-op. Every entry point is
//     guarded by one context lookup plus one atomic load, so the
//     instrumented pipeline costs the same with tracing off as the
//     uninstrumented pipeline did (BenchmarkTraceOverhead in
//     internal/partest fails when a disabled tracer costs more than
//     1.15x no tracer on MatVec, Lanczos or MELO).
//  2. Timing is monotonic: spans measure time.Since on a time.Time that
//     carries Go's monotonic clock reading, so wall-clock steps never
//     corrupt a duration.
//  3. The numerical kernels (internal/eigen, melo, dprp, parallel) must
//     not read the clock directly — cmd/vet-invariants enforces that
//     they never import "time" — so every timing they report flows
//     through this package, keeping the serial≡parallel equivalence
//     suite honest: instrumentation can observe a kernel but never
//     perturb its arithmetic.
//
// Spans form trees: Start(ctx, name) derives a child of the span carried
// by ctx (or a new root), returns a context carrying the new span, and
// Span.End delivers a SpanRecord to every sink plus the tracer's
// aggregation. Counters and gauges are flat names resolved through the
// same context (Add, SetGauge). Code that has no context — the parallel
// chunk scheduler — reports through the process-global tracer
// (SetGlobal), which is also the fallback for contexts without an
// attached tracer.
package trace

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings so
// records serialize without reflection surprises; use the Str/Int/
// Int64/Float/Bool constructors.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Str returns a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 returns a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Float returns a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// SpanRecord is a finished span as delivered to sinks. Parent is 0 for
// trace roots; Trace is the root span's ID, shared by every span of one
// trace.
type SpanRecord struct {
	Trace  uint64        `json:"trace"`
	Span   uint64        `json:"span"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Sink receives finished spans. Implementations must be safe for
// concurrent use; Record must not block (sinks run inline in Span.End).
type Sink interface {
	Record(SpanRecord)
}

// Tracer issues spans and accumulates counters, gauges and per-span-name
// duration statistics. Safe for concurrent use. The zero value is not
// usable; create with New.
type Tracer struct {
	enabled    atomic.Bool
	ids        atomic.Uint64
	chunkEvery atomic.Int64
	chunkSeq   atomic.Uint64

	sinks []Sink // immutable after New

	mu    sync.Mutex
	spans map[string]*spanAgg

	counters sync.Map // string -> *atomic.Int64
	gauges   sync.Map // string -> *atomic.Uint64 (float64 bits)
}

// New returns an enabled tracer delivering finished spans to the given
// sinks (none is fine: the built-in aggregation still works, which is
// all /metrics and WriteReport need).
func New(sinks ...Sink) *Tracer {
	t := &Tracer{sinks: sinks, spans: make(map[string]*spanAgg)}
	t.enabled.Store(true)
	return t
}

// SetEnabled flips the tracer's master switch. While disabled every
// operation is a no-op behind a single atomic load; spans started
// before disabling still record on End.
func (t *Tracer) SetEnabled(v bool) { t.enabled.Store(v) }

// Enabled reports the master switch.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetChunkSampling enables per-chunk spans in internal/parallel: one in
// every `every` chunks gets a span (0 disables, the default). Sampling
// exists because chunk spans are the only per-iteration instrumentation
// in the repository — recording all of them would dominate small
// kernels.
func (t *Tracer) SetChunkSampling(every int) {
	if every < 0 {
		every = 0
	}
	t.chunkEvery.Store(int64(every))
}

// ChunkSamplingEnabled reports whether ChunkSpan can ever return a
// non-nil span. Hot loops (internal/parallel.For) check it once per
// kernel call so the per-chunk span wrapper — a heap-allocated closure —
// is only built when sampling could actually observe a chunk.
func (t *Tracer) ChunkSamplingEnabled() bool {
	return t != nil && t.enabled.Load() && t.chunkEvery.Load() > 0
}

// ChunkSpan returns a detached (root) span for a sampled chunk, or nil
// when chunk sampling is off or this chunk is not sampled. Callers must
// End a non-nil span.
func (t *Tracer) ChunkSpan(name string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	every := t.chunkEvery.Load()
	if every <= 0 || t.chunkSeq.Add(1)%uint64(every) != 0 {
		return nil
	}
	return t.newSpan(name, nil, time.Now(), nil)
}

// global is the process-wide fallback tracer (see SetGlobal).
var global atomic.Pointer[Tracer]

// SetGlobal installs t as the process-global tracer: the fallback for
// contexts without an attached tracer, and the only reporting path for
// code with no context at all (internal/parallel). Pass nil to clear.
func SetGlobal(t *Tracer) {
	if t == nil {
		global.Store(nil)
		return
	}
	global.Store(t)
}

// Global returns the process-global tracer, or nil.
func Global() *Tracer { return global.Load() }

// Active returns the process-global tracer when it is set and enabled,
// else nil. internal/parallel gates its instrumentation on this.
func Active() *Tracer {
	if t := global.Load(); t != nil && t.enabled.Load() {
		return t
	}
	return nil
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context carrying t; Start/Add/SetGauge calls on
// the returned context (and its descendants) report to t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the tracer attached to ctx, falling back to the
// process-global tracer; nil when neither exists.
func FromContext(ctx context.Context) *Tracer {
	if t, ok := ctx.Value(tracerKey{}).(*Tracer); ok {
		return t
	}
	return global.Load()
}

// Adopt returns a context with base's deadline and cancellation but the
// trace state (tracer and current span) of src. The spectrald job pool
// uses it so a shared spectrum compute detached from one job's
// cancellation still nests its spans under that job's trace.
func Adopt(base, src context.Context) context.Context {
	if t, ok := src.Value(tracerKey{}).(*Tracer); ok {
		base = context.WithValue(base, tracerKey{}, t)
	}
	if s, ok := src.Value(spanKey{}).(*Span); ok && s != nil {
		base = context.WithValue(base, spanKey{}, s)
	}
	return base
}

// Span is one in-flight span. Spans are single-owner: Annotate and End
// are not safe for concurrent use on the same span. All methods are
// nil-safe, so the disabled-tracer path needs no branches at call
// sites.
type Span struct {
	t      *Tracer
	name   string
	trace  uint64
	id     uint64
	parent uint64
	start  time.Time
	attrs  []Attr
	ended  bool
}

// Start begins a span named name as a child of the span carried by ctx
// (or a new trace root), returning a context carrying the new span.
// When ctx has no enabled tracer it returns (ctx, nil) untouched — the
// nil span's methods are no-ops.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return StartAt(ctx, name, time.Time{}, attrs...)
}

// StartAt is Start with an explicit start time, for spans observed
// retroactively (the job pool's queue-wait span starts when the job was
// submitted). A zero start means "now".
func StartAt(ctx context.Context, name string, start time.Time, attrs ...Attr) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	if start.IsZero() {
		start = time.Now()
	}
	var parent *Span
	if s, ok := ctx.Value(spanKey{}).(*Span); ok {
		parent = s
	}
	sp := t.newSpan(name, parent, start, attrs)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

func (t *Tracer) newSpan(name string, parent *Span, start time.Time, attrs []Attr) *Span {
	id := t.ids.Add(1)
	sp := &Span{t: t, name: name, id: id, trace: id, start: start, attrs: attrs}
	if parent != nil {
		sp.trace = parent.trace
		sp.parent = parent.id
	}
	return sp
}

// Annotate appends attributes to the span (recorded at End).
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End finishes the span: its duration enters the tracer's aggregation
// and a SpanRecord is delivered to every sink. Safe on nil spans and
// idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	d := time.Since(s.start)
	s.t.observe(s.name, d)
	if len(s.t.sinks) == 0 {
		return
	}
	rec := SpanRecord{
		Trace:  s.trace,
		Span:   s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    d,
		Attrs:  s.attrs,
	}
	for _, sink := range s.t.sinks {
		sink.Record(rec)
	}
}

// Add increments the named counter by delta on the context's tracer
// (no-op without one).
func Add(ctx context.Context, name string, delta int64) {
	FromContext(ctx).Add(name, delta)
}

// Add increments the named counter by delta. No-op while disabled.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	v, ok := t.counters.Load(name)
	if !ok {
		v, _ = t.counters.LoadOrStore(name, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(delta)
}

// SetGauge sets the named gauge on the context's tracer (no-op without
// one).
func SetGauge(ctx context.Context, name string, val float64) {
	FromContext(ctx).SetGauge(name, val)
}

// SetGauge sets the named gauge to val. No-op while disabled.
func (t *Tracer) SetGauge(name string, val float64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	v, ok := t.gauges.Load(name)
	if !ok {
		v, _ = t.gauges.LoadOrStore(name, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Store(mathFloat64bits(val))
}

// Counter returns the current value of the named counter (0 if never
// incremented).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	if v, ok := t.counters.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// Counters returns a snapshot of all counters.
func (t *Tracer) Counters() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	t.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Gauges returns a snapshot of all gauges.
func (t *Tracer) Gauges() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	t.gauges.Range(func(k, v any) bool {
		out[k.(string)] = mathFloat64frombits(v.(*atomic.Uint64).Load())
		return true
	})
	return out
}

// spanAgg accumulates one span name's durations. Percentiles come from
// a bounded sample: once maxSamples are held, every other sample is
// dropped and the recording stride doubles, so long runs keep an
// unbiased-enough spread at constant memory.
type spanAgg struct {
	count   int64
	total   time.Duration
	max     time.Duration
	samples []time.Duration
	stride  int64
	skip    int64
}

const maxSamples = 4096

func (t *Tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	a := t.spans[name]
	if a == nil {
		a = &spanAgg{stride: 1}
		t.spans[name] = a
	}
	a.count++
	a.total += d
	if d > a.max {
		a.max = d
	}
	a.skip++
	if a.skip >= a.stride {
		a.skip = 0
		a.samples = append(a.samples, d)
		if len(a.samples) >= maxSamples {
			half := len(a.samples) / 2
			for i := 0; i < half; i++ {
				a.samples[i] = a.samples[2*i]
			}
			a.samples = a.samples[:half]
			a.stride *= 2
		}
	}
	t.mu.Unlock()
}

// SpanStat summarizes one span name's recorded durations.
type SpanStat struct {
	Name  string
	Count int64
	Total time.Duration
	P50   time.Duration
	P95   time.Duration
	Max   time.Duration
}

// SpanStats returns per-span-name duration statistics, sorted by name.
// Percentiles are computed over the (possibly decimated) sample.
func (t *Tracer) SpanStats() []SpanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	stats := make([]SpanStat, 0, len(t.spans))
	for name, a := range t.spans {
		s := SpanStat{Name: name, Count: a.count, Total: a.total, Max: a.max}
		if len(a.samples) > 0 {
			sorted := append([]time.Duration(nil), a.samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			s.P50 = percentile(sorted, 0.50)
			s.P95 = percentile(sorted, 0.95)
		}
		stats = append(stats, s)
	}
	t.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	return stats
}

// percentile returns the q-quantile of sorted (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(b uint64) float64 { return math.Float64frombits(b) }
