package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/parallel"
)

// handleMetrics renders the pool, cache and store counters in the
// Prometheus text exposition format — scrapable, and greppable by eye.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()

	var b strings.Builder
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	fmt.Fprintf(&b, "# HELP spectrald_jobs Current jobs by lifecycle state.\n# TYPE spectrald_jobs gauge\n")
	for _, sc := range []struct {
		state jobs.State
		n     int
	}{
		{jobs.Pending, st.Pending},
		{jobs.Running, st.Running},
		{jobs.Done, st.Done},
		{jobs.Failed, st.Failed},
		{jobs.Cancelled, st.Cancelled},
	} {
		fmt.Fprintf(&b, "spectrald_jobs{state=%q} %d\n", sc.state, sc.n)
	}
	counter("spectrald_jobs_submitted_total", "Jobs accepted into the queue.", st.Submitted)
	counter("spectrald_jobs_rejected_total", "Submissions rejected by queue backpressure.", st.Rejected)
	gauge("spectrald_queue_depth", "Jobs currently waiting for a worker.", st.QueueDepth)
	gauge("spectrald_queue_capacity", "Configured queue bound.", st.QueueCapacity)
	gauge("spectrald_workers", "Configured worker count.", st.Workers)
	gauge("spectrald_parallelism", "Worker goroutines per numerical kernel.", parallel.Limit())

	counter("spectrald_spectrum_cache_hits_total", "Jobs served by a cached eigendecomposition.", st.Cache.Hits)
	counter("spectrald_spectrum_cache_misses_total", "Spectrum lookups the LRU missed (served by the store or solved).", st.Cache.Misses)
	counter("spectrald_spectrum_cache_evictions_total", "Cached decompositions evicted by the LRU bound.", st.Cache.Evictions)
	counter("spectrald_spectrum_cache_warm_hints_total", "Decompositions prewarmed from journal replay hints.", st.Cache.WarmHints)
	gauge("spectrald_spectrum_cache_entries", "Decompositions currently cached.", st.Cache.Entries)
	counter("spectrald_spectrum_computed_total", "Eigendecompositions actually solved by this process (not served by any cache tier).", st.Computed)
	counter("spectrald_spectrum_store_hits_total", "Spectrum fetches served by the persistent store tier.", st.Cache.StoreHits)

	// Incremental (ECO) delta jobs: eigensolves by warm-start outcome.
	fmt.Fprintf(&b, "# HELP spectrald_warmstart_total Delta-job eigensolves by warm-start outcome.\n# TYPE spectrald_warmstart_total counter\n")
	for _, wc := range []struct {
		outcome string
		n       uint64
	}{
		{"accepted", st.WarmAccepted},
		{"seeded", st.WarmSeeded},
		{"rejected", st.WarmRejected},
	} {
		fmt.Fprintf(&b, "spectrald_warmstart_total{outcome=%q} %d\n", wc.outcome, wc.n)
	}

	// Persistent spectrum store (when configured).
	if store := s.pool.Cache().Store(); store != nil {
		ss := store.Stats()
		counter("spectrald_specstore_hits_total", "Persistent store reads that returned an entry.", ss.Hits)
		counter("spectrald_specstore_misses_total", "Persistent store reads that missed.", ss.Misses)
		counter("spectrald_specstore_puts_total", "Entries written to the persistent store.", ss.Puts)
		counter("spectrald_specstore_skipped_puts_total", "Writes skipped because the stored capacity already sufficed.", ss.SkippedPuts)
		counter("spectrald_specstore_quarantined_total", "Corrupt entries quarantined by the persistent store.", ss.Quarantined)
		counter("spectrald_specstore_errors_total", "Persistent store I/O failures.", ss.Errors)
		gauge("spectrald_specstore_entries", "Entries currently in the persistent store.", ss.Entries)
	}

	// Overload control and crash safety.
	gauge("spectrald_retry_after_seconds", "Current backoff hint quoted to rejected submissions.", st.RetryAfterSeconds)
	boolGauge := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	fmt.Fprintf(&b, "# HELP spectrald_shedding Whether admission control is actively shedding (policy %q).\n# TYPE spectrald_shedding gauge\nspectrald_shedding %d\n",
		st.Shed.Policy, boolGauge(st.Shed.Active))
	counter("spectrald_shed_degraded_total", "Jobs admitted with a degraded eigenvector count.", st.Shed.Degraded)
	counter("spectrald_shed_rejected_total", "Jobs rejected by load shedding before the queue filled.", st.Shed.Rejected)
	counter("spectrald_shed_trips_total", "Transitions of the shedder into the active state.", st.Shed.Trips)
	counter("spectrald_job_panics_total", "Jobs that panicked and were isolated.", st.Panics)
	counter("spectrald_journal_append_errors_total", "Journal appends that failed.", st.JournalErrors)

	if jnl := s.pool.Journal(); jnl != nil {
		js := jnl.Stats()
		counter("spectrald_journal_appends_total", "Records appended to the job journal.", js.Appends)
		counter("spectrald_journal_syncs_total", "fsync batches flushed by the journal.", js.Syncs)
		counter("spectrald_journal_rotations_total", "Journal segment rotations.", js.Rotations)
		counter("spectrald_journal_compactions_total", "Journal compactions (rewrites).", js.Compactions)
		counter("spectrald_journal_bytes_appended_total", "Bytes appended to the journal.", js.BytesAppended)
		gauge("spectrald_journal_segments", "Journal segments currently on disk.", js.Segments)
	}
	if rs := s.pool.RestoreStatsSnapshot(); rs != nil {
		gauge("spectrald_replay_jobs_reenqueued", "Jobs re-enqueued by the last journal replay.", rs.Reenqueued)
		gauge("spectrald_replay_jobs_recovered_terminal", "Terminal jobs recovered by the last journal replay.", rs.RecoveredTerminal)
		gauge("spectrald_replay_jobs_cancelled", "Jobs cancelled on replay (pre-crash cancel honoured).", rs.CancelledOnReplay)
		gauge("spectrald_replay_jobs_failed", "Jobs failed on replay (unrecoverable).", rs.FailedOnReplay)
		gauge("spectrald_replay_corrupt_records", "Corrupt journal records skipped by the last replay.", rs.Replay.CorruptRecords)
		gauge("spectrald_replay_torn_segments", "Journal segments with torn tails truncated by the last replay.", rs.Replay.TornSegments)
		gauge("spectrald_replay_truncated_bytes", "Journal bytes dropped as damaged by the last replay.", rs.Replay.TruncatedBytes)
	}

	fmt.Fprintf(&b, "# HELP spectrald_stage_seconds Cumulative per-stage latency of finished jobs.\n# TYPE spectrald_stage_seconds summary\n")
	for _, sc := range []struct {
		stage string
		agg   jobs.StageStats
	}{
		{"queue", st.QueueWait},
		{"spectrum", st.Spectrum},
		{"solve", st.Solve},
	} {
		fmt.Fprintf(&b, "spectrald_stage_seconds_sum{stage=%q} %g\n", sc.stage, sc.agg.TotalSeconds)
		fmt.Fprintf(&b, "spectrald_stage_seconds_count{stage=%q} %d\n", sc.stage, sc.agg.Count)
	}

	if tr := s.cfg.Tracer; tr != nil {
		// The tracer's built-in aggregation is the Prometheus bridge: no
		// second registry, the same numbers WriteReport prints.
		if stats := tr.SpanStats(); len(stats) > 0 {
			fmt.Fprintf(&b, "# HELP spectrald_trace_span_seconds Cumulative duration of trace spans by name.\n# TYPE spectrald_trace_span_seconds summary\n")
			for _, sp := range stats {
				fmt.Fprintf(&b, "spectrald_trace_span_seconds_sum{name=%q} %g\n", sp.Name, sp.Total.Seconds())
				fmt.Fprintf(&b, "spectrald_trace_span_seconds_count{name=%q} %d\n", sp.Name, sp.Count)
			}
		}
		if counters := tr.Counters(); len(counters) > 0 {
			names := make([]string, 0, len(counters))
			for name := range counters {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "# HELP spectrald_trace_counter_total Trace counter totals by name.\n# TYPE spectrald_trace_counter_total counter\n")
			for _, name := range names {
				fmt.Fprintf(&b, "spectrald_trace_counter_total{name=%q} %d\n", name, counters[name])
			}
		}
	}

	gauge("spectrald_netlists_stored", "Netlists in the content-addressed store.", len(s.pool.Netlists()))
	gauge("spectrald_uptime_seconds", "Seconds since the server started.", int64(time.Since(s.start).Seconds()))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
