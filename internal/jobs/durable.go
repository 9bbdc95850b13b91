package jobs

// This file is the pool's crash-safety glue: translating job lifecycle
// events into journal records, replaying a journal back into live pool
// state after a restart, and compacting the log once the history it
// holds is dominated by finished work.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	spectral "repro"
	"repro/internal/journal"
	"repro/internal/speccache"
)

// ErrJournal wraps journal append failures surfaced from Submit: the
// job was NOT durably accepted and the caller must not acknowledge it.
var ErrJournal = errors.New("jobs: journal append failed")

// specOf serializes a request for the journal.
func specOf(req Request, shedFromD int) *journal.JobSpec {
	return &journal.JobSpec{
		Kind:      string(req.Kind),
		Options:   req.Opts,
		TimeoutNS: int64(req.Timeout),
		ShedFromD: shedFromD,
		BaseHash:  req.BaseHash,
		Delta:     req.Delta,
	}
}

// requestOf rebuilds a Request from a replayed spec. The netlist is
// attached by the caller.
func requestOf(spec *journal.JobSpec, hash string) (Request, error) {
	kind := Kind(spec.Kind)
	if !kind.known() {
		return Request{}, fmt.Errorf("jobs: replayed spec has unknown kind %q", spec.Kind)
	}
	return Request{
		Hash: hash, Kind: kind, Opts: spec.Options, Timeout: time.Duration(spec.TimeoutNS),
		BaseHash: spec.BaseHash, Delta: spec.Delta,
	}, nil
}

// appendJournal writes a buffered (non-durable) record; failures are
// counted and swallowed — losing a start or hint record only costs a
// deterministic re-run after the next crash.
func (p *Pool) appendJournal(rec journal.Record) {
	if p.jnl == nil {
		return
	}
	if err := p.jnl.Append(rec); err != nil {
		p.noteJournalError()
	}
}

func (p *Pool) noteJournalError() {
	p.mu.Lock()
	p.journalErrors++
	p.mu.Unlock()
	if p.tracer != nil {
		p.tracer.Add("journal.errors", 1)
	}
}

// journalSubmit durably records an accepted job (and, first, its
// netlist body so replay can rebuild the request). req is the request
// the job was published with: a worker may already have finished the
// job, which clears the job's own netlist fields. A failure here means
// the job must not be acknowledged to the client.
func (p *Pool) journalSubmit(j *Job, req Request) error {
	if p.jnl == nil {
		return nil
	}
	if err := p.journalNetlist(req.Hash, "", req.Netlist, j.created); err != nil {
		return err
	}
	if req.base != nil {
		// A delta job's base body must survive too: replay re-applies the
		// delta to it and re-partitions it for the stability report.
		if err := p.journalNetlist(req.BaseHash, "", req.base, j.created); err != nil {
			return err
		}
	}
	if err := p.jnl.AppendDurable(journal.Record{
		Type:   journal.TypeSubmit,
		ID:     j.id,
		Hash:   req.Hash,
		Spec:   specOf(req, j.shedFromD),
		UnixNS: j.created.UnixNano(),
	}); err != nil {
		p.noteJournalError()
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// finishRecord builds the journal record for a terminal transition.
func finishRecord(id string, st State, res *Result, err error, unixNS int64) journal.Record {
	rec := journal.Record{Type: journal.TypeFinish, ID: id, State: string(st), UnixNS: unixNS}
	if err != nil {
		rec.Error = err.Error()
	}
	if res != nil {
		if b, merr := json.Marshal(res); merr == nil {
			rec.Result = b
		}
	}
	return rec
}

// journalFinish durably records a terminal transition: a finished job's
// result is part of what a restarted daemon must still serve.
func (p *Pool) journalFinish(j *Job, st State, res *Result, err error) {
	if p.jnl == nil {
		return
	}
	// The job's own finish time, so replay restores the same Finished
	// whether it reads this record or a compaction's copy of it.
	j.mu.Lock()
	fin := j.finished
	j.mu.Unlock()
	if aerr := p.jnl.AppendDurable(finishRecord(j.id, st, res, err, fin.UnixNano())); aerr != nil {
		p.noteJournalError()
		return
	}
	p.maybeCompact()
}

// RestoreStats summarizes what Restore did with the replayed journal.
type RestoreStats struct {
	// Reenqueued jobs were queued or running at crash time and run
	// again from scratch.
	Reenqueued int `json:"reenqueued"`
	// RecoveredTerminal jobs had durable finish records; their results
	// are served without recomputation.
	RecoveredTerminal int `json:"recoveredTerminal"`
	// CancelledOnReplay jobs had a cancel request but no terminal
	// record; they are restored directly to cancelled.
	CancelledOnReplay int `json:"cancelledOnReplay"`
	// FailedOnReplay jobs could not be re-enqueued or served (e.g.
	// their netlist or result record was lost to corruption); they are
	// failed with an explanatory reason rather than silently dropped.
	FailedOnReplay int `json:"failedOnReplay"`
	// Netlists recovered from the journal.
	Netlists int `json:"netlists"`
	// SpectrumHints handed to the cache prewarmer.
	SpectrumHints int                 `json:"spectrumHints"`
	Replay        journal.ReplayStats `json:"replay"`
}

// Restore rebuilds pool state from a journal replay. Call after NewPool
// (and SetTracer) but before Start and before any Submit:
//
//   - terminal jobs are restored with their recorded results and served
//     from memory exactly like jobs that finished in this process;
//   - jobs that were queued or running at crash time are re-enqueued
//     (the queue grows past QueueDepth if the backlog demands it) with
//     their deadline, if any, and their MaxQueueWait clock re-anchored
//     at restart — downtime is not charged against either budget;
//   - jobs whose netlist or result cannot be recovered are failed with
//     an explanatory error — never silently dropped;
//   - the recovered netlists fill the netlist store in the journal's
//     order of use (journal.NetlistRecord.LastUse), so it keeps the
//     MaxNetlists used last, an ECO base its deltas name included;
//   - spectrum hints prewarm the cache in the background once Start
//     runs.
//
// Restoring a journal-less pool is a no-op.
func (p *Pool) Restore(rep *journal.ReplayResult) (RestoreStats, error) {
	stats := RestoreStats{Replay: rep.Stats}
	// Replayed jobs and the prewarm need their netlists, stored or not.
	nets := make(map[string]*spectral.Netlist, len(rep.Netlists))
	byUse := slices.Clone(rep.Netlists)
	slices.SortStableFunc(byUse, func(a, b journal.NetlistRecord) int { return cmp.Compare(a.LastUse, b.LastUse) })
	for _, nr := range byUse {
		name, h, err := spectral.LoadNetlist(bytes.NewReader(nr.Body))
		if err != nil || spectral.ValidateNetlist(h) != nil {
			stats.Replay.CorruptRecords++
			continue
		}
		if name == "" {
			name = nr.Name
		}
		// The journal recorded this netlist's fingerprint when it was
		// first uploaded (and the record's CRC protected it since); seed
		// the memo so re-enqueued jobs don't pay a fresh O(pins)
		// canonicalization per netlist on every restart.
		h.SetCanonicalHash(nr.Hash)
		nets[nr.Hash] = h
		p.putNetlist(nr.Hash, name, h)
	}
	stats.Netlists = len(nets)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return stats, ErrShuttingDown
	}

	now := time.Now()
	var backlog []*Job
	// Terminal states decided during replay are journaled only after
	// p.mu is released: a compaction holds the journal's append gate
	// while it snapshots pool state under p.mu, so appending while
	// holding p.mu could deadlock against it.
	var outcomes []journal.Record
	for _, jr := range rep.Jobs {
		if jr.ID == "" {
			continue
		}
		if _, dup := p.jobs[jr.ID]; dup {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(jr.ID, "job-%d", &seq); err == nil && seq > p.seq {
			p.seq = seq
		}
		j := &Job{
			id:       jr.ID,
			state:    Pending,
			created:  now,
			restored: true,
			cancel:   func() {}, // replaced with a real cancel if re-enqueued
			done:     make(chan struct{}),
		}
		if jr.SubmittedNS > 0 {
			j.created = time.Unix(0, jr.SubmittedNS)
		}
		specErr := errors.New("jobs: spec not recovered from journal replay")
		if jr.Spec != nil {
			j.shedFromD = jr.Spec.ShedFromD
			var err error
			if j.req, err = requestOf(jr.Spec, jr.Hash); err != nil {
				specErr = err
				j.req = Request{Hash: jr.Hash, Kind: KindPartition}
			} else {
				specErr = nil
			}
		} else {
			j.req = Request{Hash: jr.Hash, Kind: KindPartition}
		}
		j.req.Netlist = nets[jr.Hash]
		if j.req.Kind == KindDelta && specErr == nil {
			if j.req.base = nets[j.req.BaseHash]; j.req.base == nil {
				specErr = fmt.Errorf("jobs: base netlist %s lost in journal replay", j.req.BaseHash)
			}
		}
		// runnable reports whether a job whose spec was recovered can run
		// again. A delta job re-applies its delta (deterministic) for its
		// reach, and for its netlist if that body was lost; a result that
		// does not reproduce the journaled fingerprint is not used.
		runnable := func() bool {
			if j.req.Kind == KindDelta {
				if mut, reach, err := applyDelta(j.req.base, j.req.Delta); err == nil && speccache.Fingerprint(mut) == jr.Hash {
					j.req.reach = reach
					if j.req.Netlist == nil {
						j.req.Netlist = mut
					}
				}
			}
			return j.req.Netlist != nil
		}

		// settle ends j in a terminal state. A recovered state keeps its
		// journaled finish time; a state this replay decides finishes now
		// and is journaled as an outcome.
		settle := func(st State, res *Result, err error, recovered bool) {
			j.state, j.result, j.err = st, res, err
			j.started, j.finished = j.created, now
			if recovered {
				j.finished = finishedTime(jr.FinishedNS, now)
			} else {
				outcomes = append(outcomes, finishRecord(j.id, st, nil, err, now.UnixNano()))
			}
			close(j.done)
		}
		failReplay := func(reason error) {
			settle(Failed, nil, reason, false)
			stats.FailedOnReplay++
		}

		switch {
		case jr.State == journal.StateDone:
			var res *Result
			if len(jr.Result) > 0 {
				var r Result
				if err := json.Unmarshal(jr.Result, &r); err == nil {
					res = &r
				}
			}
			if res == nil {
				// A done record whose result payload was lost: re-run if we
				// can, fail loudly if we cannot — never serve an empty result.
				if specErr == nil && runnable() {
					backlog = append(backlog, j)
					stats.Reenqueued++
					break
				}
				failReplay(errors.New("jobs: result lost in journal replay"))
				break
			}
			settle(Done, res, nil, true)
			stats.RecoveredTerminal++

		case jr.Terminal():
			var err error
			switch {
			case jr.Error != "":
				err = errors.New(jr.Error)
			case jr.State == journal.StateCancelled:
				err = context.Canceled
			default:
				err = errors.New("jobs: failed before restart (journal replay)")
			}
			settle(State(jr.State), nil, err, true)
			stats.RecoveredTerminal++

		case jr.CancelRequested:
			// Cancelled while queued or running, crash before the worker
			// recorded the terminal state: honour the cancellation instead
			// of re-running.
			settle(Cancelled, nil, context.Canceled, false)
			stats.CancelledOnReplay++

		default:
			// Queued or running at crash time: run it (again). The pipeline
			// is deterministic, so a re-run is byte-identical to the run
			// the crash interrupted.
			switch {
			case specErr != nil:
				failReplay(fmt.Errorf("jobs: not recoverable from journal replay: %w", specErr))
			case !runnable():
				failReplay(fmt.Errorf("jobs: not recoverable from journal replay (netlist %s lost)", jr.Hash))
			default:
				backlog = append(backlog, j)
				stats.Reenqueued++
			}
		}
		if isTerminal(j.state) {
			// Served from its finish record: pin no netlist.
			j.req.Netlist, j.req.base = nil, nil
		}
		p.jobs[j.id] = j
		p.order = append(p.order, j.id)
	}

	// Grow the queue if the replayed backlog would not fit alongside
	// fresh submissions.
	if need := len(p.queue) + len(backlog); need > cap(p.queue) {
		grown := make(chan *Job, need+p.cfg.QueueDepth)
	drain:
		for {
			select {
			case q := <-p.queue:
				grown <- q
			default:
				break drain
			}
		}
		p.queue = grown
	}
	for _, j := range backlog {
		// Deadlines — and the MaxQueueWait clock, for every re-enqueued
		// job — re-anchor at restart: the queue wait the crash destroyed
		// is not charged against the client's budget.
		j.enqueued = now
		if j.req.Timeout > 0 {
			j.created = now
		}
		j.ctx, j.cancel = p.jobContext(j.req)
		p.queue <- j
		p.submitted++
	}

	stats.SpectrumHints = len(rep.Hints)
	p.restored = &stats
	p.mu.Unlock()

	// Buffered, not durable: each outcome is deterministically
	// re-derivable from the same journal, so durability can wait for the
	// next sync.
	if p.jnl != nil {
		for _, rec := range outcomes {
			if err := p.jnl.Append(rec); err != nil {
				p.noteJournalError()
			}
		}
	}
	if p.tracer != nil {
		p.tracer.Add("journal.replay.reenqueued", int64(stats.Reenqueued))
		p.tracer.Add("journal.replay.recovered-terminal", int64(stats.RecoveredTerminal))
		p.tracer.Add("journal.replay.cancelled", int64(stats.CancelledOnReplay))
		p.tracer.Add("journal.replay.failed", int64(stats.FailedOnReplay))
		p.tracer.Add("journal.replay.corrupt-records", int64(stats.Replay.CorruptRecords))
		p.tracer.Add("journal.replay.truncated-bytes", stats.Replay.TruncatedBytes)
	}

	// Warm the spectrum cache from the replayed hints in the background:
	// a d-sweep that was warm before the crash should be warm after it.
	// Re-enqueued jobs needing the same decomposition singleflight-join
	// the prewarm compute instead of racing it.
	if len(rep.Hints) > 0 {
		hints := append([]journal.SpectrumHint(nil), rep.Hints...)
		if len(hints) > p.cfg.CacheEntries {
			hints = hints[len(hints)-p.cfg.CacheEntries:]
		}
		go p.prewarm(hints, nets)
	}
	return stats, nil
}

func finishedTime(unixNS int64, fallback time.Time) time.Time {
	if unixNS > 0 {
		return time.Unix(0, unixNS)
	}
	return fallback
}

// prewarm recomputes journal-hinted decompositions under the pool's
// base context so the cache is warm before clients re-submit.
func (p *Pool) prewarm(hints []journal.SpectrumHint, nets map[string]*spectral.Netlist) {
	for _, h := range hints {
		net, ok := nets[h.Hash]
		if !ok || h.Pairs < 2 {
			continue
		}
		model, err := spectral.ParseModel(h.Model)
		if err != nil {
			continue
		}
		if p.baseCtx.Err() != nil {
			return
		}
		r := specReq{h: net, key: speccache.Key{Hash: h.Hash, Model: h.Model}, model: model, pairs: h.Pairs}
		p.cache.MarkExpected(r.key)
		// The tier ladder means a prewarm against a populated persistent
		// store repopulates the LRU by decoding, not recomputing — the
		// zero-recompute warm restart.
		_, hit, err := p.fetch(p.baseCtx, r, nil, nil)
		if p.tracer != nil && err == nil && !hit {
			p.tracer.Add("speccache.prewarmed", 1)
		}
	}
}

// RestoreStatsSnapshot returns the stats of the Restore that rebuilt
// this pool, or nil if the pool was not restored from a journal.
func (p *Pool) RestoreStatsSnapshot() *RestoreStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.restored == nil {
		return nil
	}
	c := *p.restored
	return &c
}

// Journal exposes the pool's journal (nil when the pool is not
// durable), for the serving layer's metrics.
func (p *Pool) Journal() *journal.Journal { return p.jnl }

// maybeCompact rewrites the journal once enough finish records have
// accumulated since the last compaction: the log's useful content is
// the live state, and an unbounded history only slows the next replay.
func (p *Pool) maybeCompact() {
	if p.jnl == nil {
		return
	}
	p.mu.Lock()
	p.finishSince++
	due := p.finishSince >= p.cfg.CompactEvery && !p.compacting
	if due {
		p.compacting = true
		p.finishSince = 0
	}
	p.mu.Unlock()
	if !due {
		return
	}
	defer func() {
		p.mu.Lock()
		p.compacting = false
		p.mu.Unlock()
	}()
	_ = p.CompactJournal()
}

// CompactJournal folds the pool's live state into a fresh journal
// segment, dropping superseded history. Safe to call at any time; it is
// also the recovery path after a journal write error. The snapshot is
// taken by the journal with appends excluded, so a submission or finish
// acknowledged while the compaction runs cannot be deleted with the old
// segments.
func (p *Pool) CompactJournal() error {
	if p.jnl == nil {
		return nil
	}
	if err := p.jnl.CompactWith(p.snapshotRecords); err != nil {
		p.noteJournalError()
		return err
	}
	if p.tracer != nil {
		p.tracer.Add("journal.compactions", 1)
	}
	return nil
}

// snapshotRecords builds the compaction snapshot: one submit per tracked
// job, a finish for each terminal one, and every stored netlist. Only
// pending and running jobs still hold netlists (finish drops them); a
// terminal job replays from its finish record alone. The journal calls
// it from CompactWith with appends gated; every journal write happens
// after the state it records is published (netlists enter the store
// before their append, jobs enter p.jobs before journalSubmit, terminal
// states are set before journalFinish), so an append that completed
// before the gate closed is always visible here.
func (p *Pool) snapshotRecords() []journal.Record {
	stored := p.Netlists()

	p.mu.Lock()
	ids := append([]string(nil), p.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := p.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	p.mu.Unlock()

	// One consistent view per job: finish clears the netlists and sets
	// the terminal state under j.mu.
	type jobView struct {
		j     *Job
		req   Request
		state State
		err   error
		res   *Result
		fin   time.Time
	}
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		j.mu.Lock()
		views[i] = jobView{j, j.req, j.state, j.err, j.result, j.finished}
		j.mu.Unlock()
	}

	// Job records go first and netlists last, in their order of use, so
	// a replay ranks the store's own netlists after every netlist a job
	// names (journal.NetlistRecord.LastUse): a live job's netlist the
	// store has evicted comes first among the netlists too.
	var recs []journal.Record
	for _, v := range views {
		recs = append(recs, journal.Record{
			Type: journal.TypeSubmit, ID: v.j.id, Hash: v.req.Hash,
			Spec: specOf(v.req, v.j.shedFromD), UnixNS: v.j.created.UnixNano(),
		})
		if isTerminal(v.state) {
			recs = append(recs, finishRecord(v.j.id, v.state, v.res, v.err, v.fin.UnixNano()))
		}
	}
	var nets []NetlistInfo
	seen := make(map[string]bool, len(stored))
	for _, st := range stored {
		seen[st.Hash] = true
	}
	for _, v := range views {
		for _, n := range []NetlistInfo{{Hash: v.req.Hash, h: v.req.Netlist}, {Hash: v.req.BaseHash, h: v.req.base}} {
			if n.h != nil && !seen[n.Hash] {
				seen[n.Hash], n.Stored = true, v.j.created
				nets = append(nets, n)
			}
		}
	}
	for _, n := range append(nets, stored...) {
		var buf bytes.Buffer
		if spectral.SaveNetlist(&buf, n.Name, n.h) == nil {
			recs = append(recs, journal.Record{
				Type: journal.TypeNetlist, Hash: n.Hash, Name: n.Name, Netlist: buf.Bytes(), UnixNS: n.Stored.UnixNano(),
			})
		}
	}
	return recs
}
