package jobs

import (
	"sort"
	"sync"
	"time"
)

// ShedPolicy selects what admission control does under sustained queue
// pressure (see shedder). The zero value is ShedNone.
type ShedPolicy string

const (
	// ShedNone admits every job until the queue is full (429 only at
	// capacity — the pre-overload-control behaviour).
	ShedNone ShedPolicy = "none"
	// ShedDegrade lowers the requested eigenvector count d of new jobs
	// while pressure is sustained: fewer eigenvectors is a cheaper valid
	// answer (the paper's d trade-off), so the daemon degrades quality
	// before it degrades availability. Only jobs whose decomposition
	// shrinks with d are degraded (MELO, VKP and order jobs); every other
	// method is admitted unchanged.
	ShedDegrade ShedPolicy = "degrade"
	// ShedReject refuses new jobs (ErrQueueFull) while pressure is
	// sustained, before the queue is physically full.
	ShedReject ShedPolicy = "reject"
)

// ParseShedPolicy validates a -shed-policy flag value.
func ParseShedPolicy(s string) (ShedPolicy, bool) {
	switch ShedPolicy(s) {
	case "", ShedNone:
		return ShedNone, true
	case ShedDegrade:
		return ShedDegrade, true
	case ShedReject:
		return ShedReject, true
	}
	return ShedNone, false
}

// shedMinD is the floor admission-control degradation never goes
// below — the same floor as the resilience ladder's MinD default: a
// d=2 ordering is still a valid (paper-sanctioned) answer.
const shedMinD = 2

// shedder detects *sustained* queue pressure without reading a clock:
// it counts consecutive submissions that observed the queue at or above
// the high watermark. A single burst that a worker absorbs immediately
// does not trip it; pressure across `need` back-to-back submissions
// does. Hysteresis: once active, shedding stops only when a submission
// observes the queue at or below the low watermark.
type shedder struct {
	policy ShedPolicy
	hi, lo int // queue-depth watermarks
	need   int // consecutive high observations to activate

	mu       sync.Mutex
	streak   int
	active   bool
	degraded uint64 // jobs admitted with a lowered d
	rejected uint64 // jobs refused by ShedReject
	trips    uint64 // inactive -> active transitions
}

// newShedder sizes watermarks from the queue capacity: high = 3/4,
// low = 1/4 (min 1 apart).
func newShedder(policy ShedPolicy, queueCap int) *shedder {
	hi := queueCap * 3 / 4
	if hi < 1 {
		hi = 1
	}
	lo := queueCap / 4
	if lo >= hi {
		lo = hi - 1
	}
	return &shedder{policy: policy, hi: hi, lo: lo, need: 4}
}

// observe folds one submission-time queue depth into the pressure
// signal and reports whether shedding is active for this admission.
func (s *shedder) observe(depth int) bool {
	if s == nil || s.policy == ShedNone || s.policy == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case depth >= s.hi:
		s.streak++
		if !s.active && s.streak >= s.need {
			s.active = true
			s.trips++
		}
	case depth <= s.lo:
		s.streak = 0
		s.active = false
	default:
		// Between watermarks: the streak resets (pressure is not
		// consecutive) but an active shedder stays active (hysteresis).
		s.streak = 0
	}
	return s.active
}

func (s *shedder) noteDegraded() {
	s.mu.Lock()
	s.degraded++
	s.mu.Unlock()
}

func (s *shedder) noteRejected() {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// ShedStats is a snapshot of the shedder for /metrics.
type ShedStats struct {
	Policy   ShedPolicy `json:"policy"`
	Active   bool       `json:"active"`
	Degraded uint64     `json:"degraded"`
	Rejected uint64     `json:"rejected"`
	Trips    uint64     `json:"trips"`
}

func (s *shedder) stats() ShedStats {
	if s == nil {
		return ShedStats{Policy: ShedNone}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShedStats{Policy: s.policy, Active: s.active, Degraded: s.degraded, Rejected: s.rejected, Trips: s.trips}
}

// degradeD halves an eigenvector count toward shedMinD, returning the
// new d and whether it changed.
func degradeD(d int) (int, bool) {
	nd := max(d/2, shedMinD)
	return nd, nd < d
}

// latRing retains the run durations (spectrum + solve, excluding queue
// wait) of the most recent finished jobs, so admission control can
// quote a Retry-After grounded in what jobs currently cost.
type latRing struct {
	mu   sync.Mutex
	buf  [64]time.Duration
	n    int // filled slots
	next int // write cursor
}

func (r *latRing) add(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// p50 returns the median recent run duration (0 when no jobs finished
// yet).
func (r *latRing) p50() time.Duration {
	r.mu.Lock()
	vals := make([]time.Duration, r.n)
	copy(vals, r.buf[:r.n])
	r.mu.Unlock()
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}

// Retry-After bounds: never tell a client to come back sooner than one
// second (sub-second retries just reheat the queue) or later than a
// minute (beyond that the estimate is noise).
const (
	minRetryAfter = time.Second
	maxRetryAfter = time.Minute
)

// RetryAfter estimates when a rejected submission is worth retrying:
// the queued work ahead of the client, in worker-widths, times the
// median recent job duration —
//
//	ceil((depth+1)/workers) × p50, clamped to [1s, 60s]
//
// With no latency history yet p50 falls back to 1s, reproducing the
// old hard-coded "Retry-After: 1" as the cold-start case.
func RetryAfter(depth, workers int, p50 time.Duration) time.Duration {
	if workers < 1 {
		workers = 1
	}
	if p50 <= 0 {
		p50 = time.Second
	}
	widths := (depth + workers) / workers // ceil((depth+1)/workers) for depth >= 0
	if widths < 1 {
		widths = 1
	}
	d := time.Duration(widths) * p50
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// RetryAfter quotes the pool's current backoff hint from live queue
// depth and recent run latencies.
func (p *Pool) RetryAfter() time.Duration {
	return RetryAfter(len(p.queue), p.cfg.Workers, p.lat.p50())
}
