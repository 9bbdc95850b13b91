// Package journal is the crash-safety layer of the spectrald daemon: an
// append-only, CRC-checksummed record log of every netlist upload and
// every job state transition, durable enough that a SIGKILL'd daemon
// restarted against the same directory re-enqueues the jobs it was
// running, reports the jobs it had finished, and warms its spectrum
// cache — without a client noticing more than a latency blip.
//
// Layout: the journal is a directory of numbered segment files
// (journal-00000001.seg, ...). Each segment starts with a magic header
// and holds length-prefixed records:
//
//	[4B little-endian payload length][4B IEEE CRC32 of payload][payload]
//
// where the payload is one JSON-encoded Record. Appends go to the
// newest segment; when it exceeds Options.SegmentBytes the journal
// rotates to a fresh one. Compaction (CompactWith) folds the live state
// into a single new segment and deletes the old generation, taking its
// snapshot with appends excluded, so a record acknowledged before the
// snapshot can never be deleted with the old segments.
//
// Durability is tiered. Append buffers the record; it becomes durable
// at the next sync. AppendDurable returns only after an fsync covers
// the record, and concurrent AppendDurable calls share one fsync
// (group commit), so a burst of submissions costs one disk flush, not
// one each. The daemon journals submissions, finishes and netlist
// bodies durably — those back client acknowledgements — and start /
// cancel / spectrum-hint records cheaply: losing an unsynced start
// record merely re-runs a deterministic job on replay.
//
// Replay (see replay.go) must never refuse to boot: a torn tail or a
// corrupt record truncates the damaged segment at the failure point,
// records the damage in ReplayStats, and continues with the next
// segment.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	spectral "repro"
	"repro/internal/delta"
)

// segMagic opens every segment file; the version digit guards format
// evolution.
const segMagic = "SPECJRNL1\n"

// maxRecordBytes bounds a single record payload; replay treats a larger
// claimed length as corruption rather than attempting the allocation.
const maxRecordBytes = 64 << 20

// Type tags a Record.
type Type string

const (
	// TypeNetlist stores a netlist body (text interchange format) under
	// its content hash, so replay can rebuild Requests.
	TypeNetlist Type = "netlist"
	// TypeSubmit records an accepted job: ID, netlist hash, full spec.
	TypeSubmit Type = "submit"
	// TypeStart records that a worker picked the job up.
	TypeStart Type = "start"
	// TypeCancel records a client cancellation request.
	TypeCancel Type = "cancel"
	// TypeFinish records the terminal state, error and result.
	TypeFinish Type = "finish"
	// TypeSpectrum is a warm-restart hint: an eigendecomposition was
	// computed for (hash, model) with the given pair capacity.
	TypeSpectrum Type = "spectrum"
)

// JobSpec is the journal's serialization of a job request: its kind,
// its spectral.Options in their JSON spelling (the one the spectrald
// job body uses), and what only replay needs.
type JobSpec struct {
	Kind string `json:"kind"`
	spectral.Options
	// TimeoutNS is the per-request deadline in nanoseconds (0 = none).
	// Replay re-anchors it at restart time.
	TimeoutNS int64 `json:"timeoutNS,omitempty"`
	// ShedFromD records the originally requested d when admission
	// control degraded the job.
	ShedFromD int `json:"shedFromD,omitempty"`
	// BaseHash and Delta describe a kind "delta" job: the base netlist's
	// content hash (its body is journaled like any other netlist) and
	// the ECO delta, so replay can rebuild the mutated netlist from
	// base+delta even if the mutated body record is lost.
	BaseHash string       `json:"baseHash,omitempty"`
	Delta    *delta.Delta `json:"delta,omitempty"`
}

// Record is one journal entry. Which fields are meaningful depends on
// Type; unused fields are omitted from the encoding.
type Record struct {
	Type Type `json:"t"`
	// UnixNS is the event time (informational; replay logic is
	// order-based, not clock-based).
	UnixNS int64 `json:"ts,omitempty"`

	// Netlist records.
	Hash    string `json:"hash,omitempty"`
	Name    string `json:"name,omitempty"`
	Netlist []byte `json:"netlist,omitempty"`

	// Job records.
	ID     string          `json:"id,omitempty"`
	Spec   *JobSpec        `json:"spec,omitempty"`
	State  string          `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`

	// Spectrum hints.
	Model string `json:"model,omitempty"`
	Pairs int    `json:"pairs,omitempty"`
}

// File is the subset of *os.File the journal writes through. The chaos
// harness injects implementations that fail, discard or tear writes.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures Open. Zero fields select the noted defaults.
type Options struct {
	// SegmentBytes rotates the active segment when it grows past this
	// size. Default 4 MiB.
	SegmentBytes int64
	// OpenFile creates/opens a segment for appending. Default os.OpenFile
	// with O_CREATE|O_WRONLY|O_APPEND. Injectable for fault testing.
	OpenFile func(path string) (File, error)
}

// DefaultOpenFile is the OpenFile used when Options leaves it nil —
// exported so fault-injecting wrappers can delegate to the real thing.
func DefaultOpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.OpenFile == nil {
		o.OpenFile = DefaultOpenFile
	}
	return o
}

// Stats is a snapshot of the journal's write-side counters.
type Stats struct {
	Appends     uint64 `json:"appends"`
	Syncs       uint64 `json:"syncs"`
	Rotations   uint64 `json:"rotations"`
	Compactions uint64 `json:"compactions"`
	WriteErrors uint64 `json:"writeErrors"`
	// ActiveSegment is the generation number of the segment being
	// appended to; Segments counts live segment files.
	ActiveSegment uint64 `json:"activeSegment"`
	Segments      int    `json:"segments"`
	// BytesAppended counts payload+framing bytes written since Open.
	BytesAppended uint64 `json:"bytesAppended"`
}

// cohort is one group-commit sync shared by concurrent AppendDurable
// callers: whoever creates it becomes the leader and performs the
// flush+fsync for everyone who wrote a record while it was open.
type cohort struct {
	done chan struct{}
	err  error
}

// Journal is an open, appendable journal. Safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	// gate serializes appends against compaction: appends hold it
	// shared, CompactWith holds it exclusively. Without it a
	// record durably appended between a compaction snapshot and the
	// segment swap would land in the old generation and be deleted with
	// it — losing acknowledged state.
	gate sync.RWMutex

	mu      sync.Mutex
	file    File
	w       *bufio
	gen     uint64              // active segment generation
	size    int64               // bytes written to the active segment
	segs    int                 // live segment count
	seen    map[string]struct{} // netlist hashes already journaled this generation set
	pending *cohort
	failed  error // sticky error after an unrecoverable write failure

	stats Stats
}

// bufio is a minimal buffered writer whose buffer the journal controls
// explicitly (flush points matter for torn-tail semantics; the standard
// bufio.Writer would be fine, but owning the flush makes the crash
// window explicit and testable).
type bufio struct {
	f   File
	buf []byte
}

func (b *bufio) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *bufio) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// segName formats the file name of generation g.
func segName(g uint64) string { return fmt.Sprintf("journal-%08d.seg", g) }

// parseSegName returns the generation of a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var g uint64
	if _, err := fmt.Sscanf(name, "journal-%d.seg", &g); err != nil {
		return 0, false
	}
	return g, true
}

// listSegments returns the journal's segment file names in generation
// order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		gi, _ := parseSegName(names[i])
		gj, _ := parseSegName(names[j])
		return gi < gj
	})
	return names, nil
}

// Open replays the journal in dir (creating the directory if needed),
// then opens a fresh segment for appending. It never refuses to open
// over a damaged journal: torn tails and corrupt records are truncated
// out of the replayed state and reported in the ReplayResult's stats.
func Open(dir string, opts Options) (*Journal, *ReplayResult, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	rep, maxGen, err := replayDir(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{
		dir:  dir,
		opts: opts,
		gen:  maxGen, // openSegment bumps to maxGen+1
		segs: rep.Stats.Segments,
		seen: make(map[string]struct{}),
	}
	// Hashes already durable in prior segments need not be re-journaled
	// until a compaction replaces those segments.
	for _, n := range rep.Netlists {
		j.seen[n.Hash] = struct{}{}
	}
	j.mu.Lock()
	err = j.openSegmentLocked()
	j.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return j, rep, nil
}

// openSegmentLocked closes the active segment (if any) and starts the
// next generation. Caller holds j.mu.
func (j *Journal) openSegmentLocked() error {
	if j.file != nil {
		if err := j.w.Flush(); err != nil {
			return err
		}
		if err := j.file.Sync(); err != nil {
			return err
		}
		if err := j.file.Close(); err != nil {
			return err
		}
		j.stats.Rotations++
	}
	j.gen++
	f, err := j.opts.OpenFile(filepath.Join(j.dir, segName(j.gen)))
	if err != nil {
		return fmt.Errorf("journal: open segment %d: %w", j.gen, err)
	}
	j.file = f
	j.w = &bufio{f: f}
	if _, err := j.w.Write([]byte(segMagic)); err != nil {
		return err
	}
	j.size = int64(len(segMagic))
	j.segs++
	j.stats.ActiveSegment = j.gen
	return nil
}

// frame encodes rec with its length+CRC header.
func frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out, nil
}

// Append buffers rec into the active segment. The record becomes
// durable at the next sync (an AppendDurable, a rotation, or Close).
func (j *Journal) Append(rec Record) error {
	j.gate.RLock()
	defer j.gate.RUnlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(rec)
}

func (j *Journal) appendLocked(rec Record) error {
	if j.failed != nil {
		return j.failed
	}
	b, err := frame(rec)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(b); err != nil {
		return j.fail(err)
	}
	j.size += int64(len(b))
	j.stats.Appends++
	j.stats.BytesAppended += uint64(len(b))
	if j.size >= j.opts.SegmentBytes {
		if err := j.openSegmentLocked(); err != nil {
			return j.fail(err)
		}
	}
	return nil
}

// fail records a write-path error. The journal stays usable only if the
// caller recovers it via CompactWith (compaction onto a fresh segment);
// until then every append returns the sticky error so the daemon can
// refuse durable acknowledgements instead of lying.
func (j *Journal) fail(err error) error {
	j.stats.WriteErrors++
	j.failed = fmt.Errorf("journal: %w", err)
	return j.failed
}

// AppendDurable appends rec and returns once an fsync covers it.
// Concurrent calls share one fsync (group commit).
func (j *Journal) AppendDurable(rec Record) error {
	j.gate.RLock()
	defer j.gate.RUnlock()
	return j.appendDurableGated(rec)
}

// appendDurableGated is AppendDurable minus the compaction gate, for
// callers (AppendNetlist) that already hold it shared.
func (j *Journal) appendDurableGated(rec Record) error {
	j.mu.Lock()
	if err := j.appendLocked(rec); err != nil {
		j.mu.Unlock()
		return err
	}
	c := j.pending
	leader := c == nil
	if leader {
		c = &cohort{done: make(chan struct{})}
		j.pending = c
	}
	j.mu.Unlock()

	if !leader {
		<-c.done
		return c.err
	}
	// Leader: detach the cohort, then flush+fsync while still holding
	// j.mu, so a concurrent append cannot rotate the segment — flushing,
	// syncing and closing the very file this sync targets — out from
	// under it. Everyone who appended while the cohort was attached wrote
	// before this flush (appends and cohort membership share j.mu), so
	// one fsync covers them all; records a rotation already carried to
	// disk are simply covered twice. Appends arriving after the detach
	// form the next cohort and wait their turn behind this sync.
	j.mu.Lock()
	var err error
	j.pending = nil
	switch {
	case j.failed != nil:
		// A concurrent append already failed the journal; this cohort's
		// records may never have reached the file. Report, don't lie.
		err = j.failed
	case j.file == nil:
		err = fmt.Errorf("journal: closed")
	default:
		if err = j.w.Flush(); err != nil {
			err = j.fail(err)
		} else if err = j.file.Sync(); err != nil {
			err = j.fail(err)
		} else {
			j.stats.Syncs++
		}
	}
	j.mu.Unlock()
	c.err = err
	close(c.done)
	return err
}

// AppendNetlist durably journals a netlist body under its hash, once:
// re-journaling a hash already recorded in this journal's lifetime is a
// no-op, so every submission can call it unconditionally. body builds
// the bytes and is called only for a hash the journal has not recorded,
// so a repeat submission never serializes its netlist.
func (j *Journal) AppendNetlist(hash, name string, body func() ([]byte, error), unixNS int64) error {
	j.gate.RLock()
	defer j.gate.RUnlock()
	j.mu.Lock()
	if j.failed != nil {
		err := j.failed
		j.mu.Unlock()
		return err
	}
	if _, ok := j.seen[hash]; ok {
		j.mu.Unlock()
		return nil
	}
	j.seen[hash] = struct{}{}
	j.mu.Unlock()
	b, err := body()
	if err == nil {
		err = j.appendDurableGated(Record{Type: TypeNetlist, Hash: hash, Name: name, Netlist: b, UnixNS: unixNS})
	}
	if err != nil {
		// Not durable: allow a retry on the next submission.
		j.mu.Lock()
		delete(j.seen, hash)
		j.mu.Unlock()
	}
	return err
}

// CompactWith compacts the journal: it writes the records snapshot
// returns (the caller's live state — netlist bodies plus one submit and,
// for terminal jobs, one finish record each) into a fresh segment,
// fsyncs it, and deletes every older segment. It also clears a sticky
// write error, giving the daemon a recovery path that does not lose
// acknowledged state that still lives in memory.
//
// snapshot is called with all appends excluded: every append either
// completes before the snapshot is taken (so the caller's state — and
// hence the snapshot — reflects it) or starts after the segment swap
// (landing in the new generation). Either way no acknowledged record is
// deleted with the old segments.
func (j *Journal) CompactWith(snapshot func() []Record) error {
	j.gate.Lock()
	defer j.gate.Unlock()
	recs := snapshot()
	j.mu.Lock()
	defer j.mu.Unlock()

	// Best-effort close of the previous segment; its contents are about
	// to be superseded, so flush errors are not fatal.
	if j.file != nil {
		_ = j.w.Flush()
		_ = j.file.Sync()
		_ = j.file.Close()
		j.file = nil
	}
	oldGen := j.gen
	j.failed = nil
	if err := j.openSegmentLocked(); err != nil {
		return err
	}
	j.segs = 1
	j.seen = make(map[string]struct{})
	for _, rec := range recs {
		if rec.Type == TypeNetlist {
			j.seen[rec.Hash] = struct{}{}
		}
		if err := j.appendLocked(rec); err != nil {
			return err
		}
	}
	if err := j.w.Flush(); err != nil {
		return j.fail(err)
	}
	if err := j.file.Sync(); err != nil {
		return j.fail(err)
	}
	j.stats.Syncs++
	j.stats.Compactions++

	names, err := listSegments(j.dir)
	if err != nil {
		return nil // compacted state is durable; stale segments are replay-tolerated
	}
	for _, name := range names {
		if g, ok := parseSegName(name); ok && g <= oldGen {
			_ = os.Remove(filepath.Join(j.dir, name))
		}
	}
	j.segs = 1
	return nil
}

// Sync flushes and fsyncs the active segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed != nil {
		return j.failed
	}
	if err := j.w.Flush(); err != nil {
		return j.fail(err)
	}
	if err := j.file.Sync(); err != nil {
		return j.fail(err)
	}
	j.stats.Syncs++
	return nil
}

// Close flushes, fsyncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return nil
	}
	ferr := j.w.Flush()
	serr := j.file.Sync()
	cerr := j.file.Close()
	j.file = nil
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.Segments = j.segs
	return s
}

// Err returns the sticky write error, if the journal has failed.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}
