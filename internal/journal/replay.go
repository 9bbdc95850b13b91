package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Job lifecycle states as the journal spells them. They mirror
// jobs.State values; the journal keeps its own strings so the log
// format is self-contained.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// NetlistRecord is one replayed netlist body.
type NetlistRecord struct {
	Hash string
	Name string
	Body []byte
	// LastUse ranks the netlist's last use among the replayed records:
	// its own record, and each submit that names it as a job's netlist
	// or as a delta's base (the base first, as the daemon looks it up
	// before storing the mutant). Ordering by it rebuilds the daemon's
	// order of use.
	LastUse int
}

// JobReplay is the folded state of one job after replaying every
// segment: the latest-known lifecycle state plus everything needed to
// re-enqueue it (spec + netlist hash) or report it (error, result).
type JobReplay struct {
	ID              string
	Hash            string
	Spec            *JobSpec
	State           string
	CancelRequested bool
	Error           string
	Result          json.RawMessage
	SubmittedNS     int64
	FinishedNS      int64
}

// Terminal reports whether the job reached a terminal state before the
// journal ended.
func (r *JobReplay) Terminal() bool {
	return r.State == StateDone || r.State == StateFailed || r.State == StateCancelled
}

// SpectrumHint is a warm-restart hint: this decomposition existed in
// the spectrum cache before the crash.
type SpectrumHint struct {
	Hash  string
	Model string
	Pairs int
}

// ReplayStats quantifies what replay found — and what it had to throw
// away. Damage counters are diagnostics, not errors: replay always
// produces a usable (possibly truncated) state.
type ReplayStats struct {
	Segments       int      `json:"segments"`
	Records        int      `json:"records"`
	NetlistRecords int      `json:"netlistRecords"`
	JobRecords     int      `json:"jobRecords"`
	SpectrumHints  int      `json:"spectrumHints"`
	CorruptRecords int      `json:"corruptRecords"`
	TruncatedBytes int64    `json:"truncatedBytes"`
	TornSegments   int      `json:"tornSegments"`
	DuplicateTerm  int      `json:"duplicateTerminalRecords"`
	Warnings       []string `json:"warnings,omitempty"`
}

func (s *ReplayStats) warnf(format string, args ...any) {
	const maxWarnings = 32
	if len(s.Warnings) < maxWarnings {
		s.Warnings = append(s.Warnings, fmt.Sprintf(format, args...))
	}
}

// ReplayResult is the folded journal state Open hands back.
type ReplayResult struct {
	// Netlists holds the latest body per hash, in first-seen order.
	Netlists []NetlistRecord
	// Jobs holds one entry per job ID, in first-seen (submission) order.
	Jobs []*JobReplay
	// Hints lists spectra that were cached before the crash.
	Hints []SpectrumHint
	Stats ReplayStats

	byHash map[string]int
	byID   map[string]*JobReplay
	hints  map[hintKey]int
	uses   int // netlist uses folded so far
}

// use marks the netlist hash used by the record being folded. A hash
// whose netlist record comes later needs no mark: that record is the
// later use.
func (r *ReplayResult) use(hash string) {
	r.uses++
	if i, ok := r.byHash[hash]; ok {
		r.Netlists[i].LastUse = r.uses
	}
}

// hintKey identifies a spectrum hint.
type hintKey struct {
	Hash, Model string
}

func newReplayResult() *ReplayResult {
	return &ReplayResult{
		byHash: make(map[string]int),
		byID:   make(map[string]*JobReplay),
		hints:  make(map[hintKey]int),
	}
}

// Netlist returns the replayed body for hash.
func (r *ReplayResult) Netlist(hash string) (NetlistRecord, bool) {
	i, ok := r.byHash[hash]
	if !ok {
		return NetlistRecord{}, false
	}
	return r.Netlists[i], true
}

// replayDir folds every segment in dir. It returns the highest segment
// generation seen so Open can continue numbering past it.
func replayDir(dir string) (*ReplayResult, uint64, error) {
	res := newReplayResult()
	names, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return res, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: scan %s: %w", dir, err)
	}
	var maxGen uint64
	for _, name := range names {
		if g, ok := parseSegName(name); ok && g > maxGen {
			maxGen = g
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			// Unreadable segment: warn and keep booting with what we have.
			res.Stats.warnf("segment %s unreadable: %v", name, err)
			res.Stats.CorruptRecords++
			continue
		}
		res.Stats.Segments++
		res.replaySegment(name, data)
	}
	return res, maxGen, nil
}

// replaySegment folds one segment's bytes into the result, truncating
// at the first sign of damage (torn tail or CRC mismatch) — everything
// before the damage point is kept, everything after is counted as lost.
func (r *ReplayResult) replaySegment(name string, data []byte) {
	st := &r.Stats
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		st.warnf("segment %s: bad magic; skipped (%d bytes)", name, len(data))
		st.CorruptRecords++
		st.TruncatedBytes += int64(len(data))
		return
	}
	off := len(segMagic)
	for off < len(data) {
		rest := len(data) - off
		if rest < 8 {
			// Torn header at the tail: a crash mid-write. Normal; drop it.
			st.TornSegments++
			st.TruncatedBytes += int64(rest)
			st.warnf("segment %s: torn record header at offset %d (%d bytes dropped)", name, off, rest)
			return
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordBytes {
			st.CorruptRecords++
			st.TruncatedBytes += int64(rest)
			st.warnf("segment %s: implausible record length %d at offset %d; segment truncated", name, n, off)
			return
		}
		if rest-8 < n {
			// Torn payload at the tail.
			st.TornSegments++
			st.TruncatedBytes += int64(rest)
			st.warnf("segment %s: torn record payload at offset %d (%d bytes dropped)", name, off, rest)
			return
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			st.CorruptRecords++
			st.TruncatedBytes += int64(rest)
			st.warnf("segment %s: CRC mismatch at offset %d; segment truncated", name, off)
			return
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// Checksummed but undecodable (format drift): skip just this
			// record — the framing is intact, so the next one is safe.
			st.CorruptRecords++
			st.warnf("segment %s: undecodable record at offset %d: %v", name, off, err)
			off += 8 + n
			continue
		}
		r.fold(rec)
		st.Records++
		off += 8 + n
	}
}

// fold applies one record. Records may arrive out of submission order
// across segments (and a start can precede its submit when a crash cut
// between the buffered and durable write paths), so fold is
// order-tolerant: it merges fields rather than assuming sequence.
func (r *ReplayResult) fold(rec Record) {
	st := &r.Stats
	switch rec.Type {
	case TypeNetlist:
		st.NetlistRecords++
		if i, ok := r.byHash[rec.Hash]; ok {
			r.Netlists[i].Body = rec.Netlist
			if rec.Name != "" {
				r.Netlists[i].Name = rec.Name
			}
			r.use(rec.Hash)
			return
		}
		r.byHash[rec.Hash] = len(r.Netlists)
		r.Netlists = append(r.Netlists, NetlistRecord{Hash: rec.Hash, Name: rec.Name, Body: rec.Netlist})
		r.use(rec.Hash)
	case TypeSubmit, TypeStart, TypeCancel, TypeFinish:
		st.JobRecords++
		if rec.ID == "" {
			st.CorruptRecords++
			st.warnf("job record with empty ID (type %s) ignored", rec.Type)
			return
		}
		j := r.byID[rec.ID]
		if j == nil {
			j = &JobReplay{ID: rec.ID, State: StatePending}
			r.byID[rec.ID] = j
			r.Jobs = append(r.Jobs, j)
		}
		switch rec.Type {
		case TypeSubmit:
			j.Hash = rec.Hash
			j.Spec = rec.Spec
			j.SubmittedNS = rec.UnixNS
			if rec.Spec != nil && rec.Spec.BaseHash != "" {
				r.use(rec.Spec.BaseHash)
			}
			r.use(rec.Hash)
		case TypeStart:
			if !j.Terminal() {
				j.State = StateRunning
			}
		case TypeCancel:
			j.CancelRequested = true
		case TypeFinish:
			if j.Terminal() {
				st.DuplicateTerm++
				st.warnf("job %s: duplicate terminal record (%s after %s)", j.ID, rec.State, j.State)
				return
			}
			switch rec.State {
			case StateDone, StateFailed, StateCancelled:
				j.State = rec.State
			default:
				st.CorruptRecords++
				st.warnf("job %s: finish record with state %q ignored", j.ID, rec.State)
				return
			}
			j.Error = rec.Error
			j.Result = rec.Result
			j.FinishedNS = rec.UnixNS
		}
	case TypeSpectrum:
		st.SpectrumHints++
		k := hintKey{Hash: rec.Hash, Model: rec.Model}
		if i, ok := r.hints[k]; ok {
			if rec.Pairs > r.Hints[i].Pairs {
				r.Hints[i].Pairs = rec.Pairs
			}
			return
		}
		r.hints[k] = len(r.Hints)
		r.Hints = append(r.Hints, SpectrumHint{Hash: rec.Hash, Model: rec.Model, Pairs: rec.Pairs})
	default:
		// Unknown record type: forward compatibility — count and continue.
		st.CorruptRecords++
		st.warnf("unknown record type %q ignored", rec.Type)
	}
}
