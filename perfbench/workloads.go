package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	spectral "repro"
	"repro/internal/delta"
	"repro/internal/speccache"
)

// errExhausted ends a client's loop when a workload has no distinct
// input left; inputs are sized so that a run never gets there.
var errExhausted = errors.New("workload inputs exhausted")

// jobRecord is one timed job: latency from the request carrying the
// netlist (or delta) to the parsed result, and what the checks need.
type jobRecord struct {
	seq     int
	latency float64 // seconds, upload or submit → parsed result
	upload  float64 // seconds of the POST carrying the netlist or delta
	fetch   float64 // seconds of the status and result GETs
	status  jobStatus
	result  *jobResult
	cut     int    // recomputed by the check
	d       int    // eigenvectors requested
	hash    string // netlist hash the daemon reported for a delta job
	err     error
}

// workload is one closed-loop traffic mix against an in-process
// spectrald.
type workload interface {
	// clients is the number of closed-loop clients and pool workers;
	// limit is the kernel worker cap per job (parallel.SetLimit).
	// clients × limit never exceeds the two cores the benchmark targets.
	clients() int
	limit() int
	durable() bool
	// prepare generates the run's inputs from the workload seed, sized
	// for a run of the given length, and returns how many generator
	// seeds it skipped.
	prepare(seed int64, seconds float64) (skipped int, err error)
	// preload brings a freshly booted daemon to the state timing starts
	// from: uploads, prewarmed spectra, a warm-up job.
	preload(c *client) error
	// job runs the i-th job of the workload's sequence.
	job(c *client, i int) jobRecord
	// check verifies one completed job's answer and sets rec.cut.
	check(rec *jobRecord) error
	// checkRun verifies run-level properties after the timed phases.
	checkRun(recs []jobRecord, ph []phaseResult) error
	// replay times the workload's layers from outside, by calling their
	// public functions on the run's own inputs (traced runs only).
	replay(ls layerSet, recs []jobRecord) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold-flat":
		return &coldFlat{}, nil
	case "cached-sweep":
		return &cachedSweep{}, nil
	case "eco-durable":
		return &ecoDurable{}, nil
	case "ml-large":
		return &mlLarge{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-flat|cached-sweep|eco-durable|ml-large)", name)
}

// runJob uploads body (when non-empty), submits req against the stored
// hash (or req's own netlist) and waits for the result.
func runJob(c *client, body []byte, req map[string]any) jobRecord {
	var rec jobRecord
	t0 := time.Now()
	if len(body) > 0 {
		hash, err := c.upload(body)
		if err != nil {
			rec.err = err
			return rec
		}
		req["netlist"] = hash
		rec.upload = time.Since(t0).Seconds()
	}
	id, err := c.submit(req)
	if err != nil {
		rec.err = err
		return rec
	}
	return finishJob(c, rec, id, t0)
}

func finishJob(c *client, rec jobRecord, id string, t0 time.Time) jobRecord {
	done, err := c.awaitDone(id)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.status, rec.result, rec.err = c.fetch(id)
	end := time.Now()
	rec.fetch = end.Sub(done).Seconds()
	rec.latency = end.Sub(t0).Seconds()
	return rec
}

// Balance windows the answers are checked against: MELO bipartitions
// keep the smaller side at ≥ ceil(minFrac·n) modules (the façade
// default 0.45, relaxed to n/2 when that is unreachable), DP-RP keeps
// every K ≥ 3 block within [n/(2K), ceil(2n/K)]. The multilevel V-cycle
// refines under a bound it may relax to what projection delivered, so
// mlmelo answers are held to mlMinFrac.
const (
	meloMinFrac = 0.45
	mlMinFrac   = 0.40
)

// checkAnswer verifies that res is a complete K-way partition of h within
// its balance window and that the reported net cut matches the cut
// recomputed from the assignment. It returns the recomputed cut.
func checkAnswer(h *spectral.Netlist, res *jobResult, k int, minFrac float64) (int, error) {
	if res == nil {
		return 0, errors.New("no result")
	}
	n := h.NumModules()
	if len(res.Assign) != n || res.K != k {
		return 0, fmt.Errorf("assignment covers %d modules in %d parts, want %d in %d", len(res.Assign), res.K, n, k)
	}
	sizes := make([]int, k)
	for i, a := range res.Assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("module %d in part %d, out of [0,%d)", i, a, k)
		}
		sizes[a]++
	}
	lo, hi := 1, n
	if k == 2 {
		lo = int(math.Ceil(minFrac * float64(n)))
		if lo > n/2 {
			lo = n / 2
		}
	} else {
		lo = max(1, n/(2*k))
		hi = (2*n + k - 1) / k
	}
	for c, s := range sizes {
		if s < lo || s > hi {
			return 0, fmt.Errorf("part %d holds %d modules, outside [%d,%d]", c, s, lo, hi)
		}
	}
	cut := spectral.NetCut(h, &spectral.Partitioning{Assign: res.Assign, K: k})
	if cut != res.NetCut {
		return cut, fmt.Errorf("reported netCut %d, recomputed %d", res.NetCut, cut)
	}
	return cut, nil
}

// computedFlat checks that no phase computed a spectrum.
func computedFlat(ph []phaseResult) error {
	for _, p := range ph {
		if n := p.after.Computed - p.before.Computed; n != 0 {
			return fmt.Errorf("%d spectra computed during the timed phase, want 0", n)
		}
	}
	return nil
}

// ---- cold-flat ----------------------------------------------------------

// coldFlat uploads a distinct circuit per job and partitions it with
// MELO at K=2, d=10: every spectrum misses the cache.
type coldFlat struct {
	warmup *circuit
	inputs []*circuit
}

func (w *coldFlat) clients() int  { return 1 }
func (w *coldFlat) limit() int    { return 2 }
func (w *coldFlat) durable() bool { return false }

func (w *coldFlat) prepare(seed int64, seconds float64) (int, error) {
	scale, err := scaleTo(coldFlatClasses[0], coldFlatN)
	if err != nil {
		return 0, err
	}
	if w.warmup, err = canonical(coldFlatClasses[0], scale); err != nil {
		return 0, err
	}
	// No job here is faster than 0.1 s, so this many inputs outlast the
	// run; the inputs that stay unused cost only generation time.
	skips := 0
	w.inputs = make([]*circuit, int(seconds/0.1)+20)
	for i := range w.inputs {
		if w.inputs[i], err = coldFlatCircuit(seed, streamJobs, uint64(i), &skips); err != nil {
			return skips, err
		}
	}
	return skips, nil
}

func meloRequest(k, d int) map[string]any {
	return map[string]any{"method": "melo", "k": k, "d": d}
}

func (w *coldFlat) preload(c *client) error {
	rec := runJob(c, w.warmup.body, meloRequest(2, 10))
	return rec.err
}

func (w *coldFlat) job(c *client, i int) jobRecord {
	if i >= len(w.inputs) {
		return jobRecord{err: errExhausted}
	}
	rec := runJob(c, w.inputs[i].body, meloRequest(2, 10))
	rec.d = 10
	return rec
}

func (w *coldFlat) check(rec *jobRecord) error {
	var err error
	rec.cut, err = checkAnswer(w.inputs[rec.seq].h, rec.result, 2, meloMinFrac)
	return err
}

func (w *coldFlat) checkRun([]jobRecord, []phaseResult) error { return nil }

func (w *coldFlat) replay(ls layerSet, recs []jobRecord) error {
	hs, bodies := w.sample(recs, 3)
	if err := ls.parse(bodies); err != nil {
		return err
	}
	sps, err := ls.decompose(hs, 10)
	if err != nil {
		return err
	}
	return ls.order(hs, sps, 10)
}

// sample returns the netlists and bodies of the first n completed jobs.
func (w *coldFlat) sample(recs []jobRecord, n int) ([]*spectral.Netlist, [][]byte) {
	var hs []*spectral.Netlist
	var bodies [][]byte
	for _, r := range recs {
		if len(hs) == n {
			break
		}
		hs = append(hs, w.inputs[r.seq].h)
		bodies = append(bodies, w.inputs[r.seq].body)
	}
	return hs, bodies
}

// ---- cached-sweep -------------------------------------------------------

// cachedSweep prewarms the d=10 spectra of a few n≈3k circuits in
// set-up, then sweeps K∈{2,3,4} × d∈{2,5,10} against them: every job is
// a spectrum-cache hit (with prefix reuse for d < 10), so the timed work
// is MELO ordering and the DP-RP split.
type cachedSweep struct {
	circuits []*circuit
	hashes   []string
	order    []sweepJob
	uploads  []float64
}

func (w *cachedSweep) clients() int  { return 2 }
func (w *cachedSweep) limit() int    { return 1 }
func (w *cachedSweep) durable() bool { return false }

// prepare takes the canonical instances and draws only the sweep order
// from the seed: set-up prewarms these spectra, and eigensolve times of
// seeded instances at n ≈ 3k differ up to fourfold, which would make
// setup_s follow the seed.
func (w *cachedSweep) prepare(seed int64, _ float64) (int, error) {
	w.circuits = make([]*circuit, len(sweepClasses))
	for i, class := range sweepClasses {
		c, err := canonical(class, 1)
		if err != nil {
			return 0, err
		}
		w.circuits[i] = c
	}
	w.order = sweepOrder(seed)
	return 0, nil
}

func (w *cachedSweep) preload(c *client) error {
	w.hashes = make([]string, len(w.circuits))
	w.uploads = w.uploads[:0]
	ids := make([]string, len(w.circuits))
	for i, ci := range w.circuits {
		t := time.Now()
		hash, err := c.upload(ci.body)
		if err != nil {
			return err
		}
		w.uploads = append(w.uploads, time.Since(t).Seconds())
		w.hashes[i] = hash
		req := meloRequest(2, 10)
		req["netlist"] = hash
		if ids[i], err = c.submit(req); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if _, err := c.awaitDone(id); err != nil {
			return err
		}
		if _, _, err := c.fetch(id); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	return nil
}

func (w *cachedSweep) job(c *client, i int) jobRecord {
	sj := w.order[i%len(w.order)]
	req := meloRequest(sj.k, sj.d)
	req["netlist"] = w.hashes[sj.circuit]
	rec := runJob(c, nil, req)
	rec.d = sj.d
	return rec
}

func (w *cachedSweep) check(rec *jobRecord) error {
	sj := w.order[rec.seq%len(w.order)]
	var err error
	rec.cut, err = checkAnswer(w.circuits[sj.circuit].h, rec.result, sj.k, meloMinFrac)
	return err
}

func (w *cachedSweep) checkRun(_ []jobRecord, ph []phaseResult) error { return computedFlat(ph) }

func (w *cachedSweep) replay(ls layerSet, recs []jobRecord) error {
	hs := []*spectral.Netlist{w.circuits[0].h, w.circuits[1].h}
	if err := ls.parse([][]byte{w.circuits[0].body, w.circuits[1].body}); err != nil {
		return err
	}
	ls["server.upload_s"] = median(w.uploads)
	sps, err := ls.decompose(hs, 10)
	if err != nil {
		return err
	}
	if err := ls.order(hs, sps, 10); err != nil {
		return err
	}
	return ls.split(hs, sps, 3, 10)
}

// ---- eco-durable --------------------------------------------------------

// ecoDurable posts a stream of seeded ECO deltas against one prim2-class
// base on a durable daemon (group-commit journal plus disk spectrum
// store): each job journals two netlist bodies, warm-starts its
// eigensolve from the base spectrum and writes the new spectrum through
// to the store.
type ecoDurable struct {
	base     *circuit
	baseHash string
	deltas   []*delta.Delta
	bodies   [][]byte
}

func (w *ecoDurable) clients() int  { return 2 }
func (w *ecoDurable) limit() int    { return 1 }
func (w *ecoDurable) durable() bool { return true }

// ecoK and ecoD are the partition options of every delta job.
const ecoK, ecoD = 2, 10

// prepare draws the delta stream from the seed against the canonical
// prim2 instance: every delta job repartitions the base, so a seeded base
// would make netcut_mean and the warm-start cost follow the one base
// instance a seed happens to draw.
func (w *ecoDurable) prepare(seed int64, seconds float64) (int, error) {
	var err error
	if w.base, err = canonical("prim2", 1); err != nil {
		return 0, err
	}
	// Delta jobs take well over 0.2 s on two clients; see coldFlat.
	count := int(seconds/0.1) + 20
	w.deltas = make([]*delta.Delta, count)
	w.bodies = make([][]byte, count)
	for i := range w.deltas {
		w.deltas[i] = ecoDelta(w.base.h, seed, uint64(i))
		if w.bodies[i], err = deltaBody(w.deltas[i], ecoK, ecoD); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func (w *ecoDurable) preload(c *client) error {
	hash, err := c.upload(w.base.body)
	if err != nil {
		return err
	}
	w.baseHash = hash
	req := meloRequest(ecoK, ecoD)
	req["netlist"] = hash
	id, err := c.submit(req)
	if err != nil {
		return err
	}
	if _, err := c.awaitDone(id); err != nil {
		return err
	}
	_, _, err = c.fetch(id)
	return err
}

func (w *ecoDurable) job(c *client, i int) jobRecord {
	if i >= len(w.deltas) {
		return jobRecord{err: errExhausted}
	}
	rec := jobRecord{d: ecoD}
	t0 := time.Now()
	id, hash, err := c.submitDelta(w.baseHash, w.bodies[i])
	if err != nil {
		rec.err = err
		return rec
	}
	rec.upload = time.Since(t0).Seconds()
	rec.hash = hash
	return finishJob(c, rec, id, t0)
}

func (w *ecoDurable) mutated(seq int) (*spectral.Netlist, error) {
	mut, _, err := delta.Apply(w.base.h, w.deltas[seq])
	return mut, err
}

func (w *ecoDurable) check(rec *jobRecord) error {
	mut, err := w.mutated(rec.seq)
	if err != nil {
		return err
	}
	if h := speccache.Fingerprint(mut); h != rec.hash {
		return fmt.Errorf("daemon filed the mutated netlist under %s, want %s", rec.hash, h)
	}
	rec.cut, err = checkAnswer(mut, rec.result, ecoK, meloMinFrac)
	return err
}

// checkRun compares the first completed delta job with a cold
// PartitionCtx of the same mutated netlist: warm-started solves must
// give the cold answer bit for bit.
func (w *ecoDurable) checkRun(recs []jobRecord, _ []phaseResult) error {
	first := firstDone(recs)
	if first == nil {
		return errors.New("no delta job completed")
	}
	mut, err := w.mutated(first.seq)
	if err != nil {
		return err
	}
	cold, err := spectral.PartitionCtx(context.Background(), mut, spectral.Options{K: ecoK, D: ecoD})
	if err != nil {
		return fmt.Errorf("cold partition: %w", err)
	}
	if !slices.Equal(cold.Assign, first.result.Assign) {
		return fmt.Errorf("delta job %d: warm-started answer differs from a cold partition of the mutated netlist", first.seq)
	}
	return nil
}

func (w *ecoDurable) replay(ls layerSet, recs []jobRecord) error {
	var muts []*spectral.Netlist
	applyTimes := make([]float64, 0, len(recs))
	for _, r := range recs {
		t := time.Now()
		mut, _, err := delta.Apply(w.base.h, w.deltas[r.seq])
		applyTimes = append(applyTimes, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		if len(muts) < 2 {
			muts = append(muts, mut)
		}
	}
	ls["delta.apply_s"] = median(applyTimes)
	if err := ls.parse([][]byte{w.base.body}); err != nil {
		return err
	}
	baseSp, err := spectral.DecomposeCtx(context.Background(), w.base.h, specModel, ecoD)
	if err != nil {
		return err
	}
	if _, err := ls.decompose(muts, ecoD); err != nil {
		return err
	}
	warm, err := ls.warmDecompose(muts, baseSp, ecoD)
	if err != nil {
		return err
	}
	if err := ls.order(muts, warm, ecoD); err != nil {
		return err
	}
	return ls.durableLayers(muts, warm)
}

// ---- ml-large -----------------------------------------------------------

// mlLarge uploads multi-megabyte industry2-class netlists and partitions
// them with the multilevel V-cycle (mlmelo) at K=2: parsing, coarsening
// and FM refinement dominate; the eigensolve runs only on the coarsest
// level.
type mlLarge struct {
	warmup *circuit
	inputs []*circuit
}

// mlScale is the industry2 scale of ml-large: n ≈ 5·10⁴ modules and
// 5.6 MB upload bodies. At n ≈ 10⁵ a job takes 1.2 s on two cores, so a
// run completes too few jobs for job_tail_s to sit above the median.
const mlScale = 4

// mlInstances is how many distinct instances the jobs cycle through.
// mlmelo solves no shared spectrum, so a repeated netlist costs the
// same as a new one.
const mlInstances = 3

func (w *mlLarge) clients() int  { return 1 }
func (w *mlLarge) limit() int    { return 2 }
func (w *mlLarge) durable() bool { return false }

func (w *mlLarge) prepare(seed int64, _ float64) (int, error) {
	var err error
	if w.warmup, err = canonical("industry2", mlScale); err != nil {
		return 0, err
	}
	skips := 0
	w.inputs = make([]*circuit, mlInstances)
	for i := range w.inputs {
		if w.inputs[i], err = generate("industry2", mlScale, seed, streamJobs, uint64(i), &skips); err != nil {
			return skips, err
		}
	}
	return skips, nil
}

func mlRequest() map[string]any { return map[string]any{"method": "mlmelo", "k": 2} }

func (w *mlLarge) preload(c *client) error {
	return runJob(c, w.warmup.body, mlRequest()).err
}

func (w *mlLarge) job(c *client, i int) jobRecord {
	return runJob(c, w.inputs[i%len(w.inputs)].body, mlRequest())
}

func (w *mlLarge) check(rec *jobRecord) error {
	var err error
	rec.cut, err = checkAnswer(w.inputs[rec.seq%len(w.inputs)].h, rec.result, 2, mlMinFrac)
	return err
}

func (w *mlLarge) checkRun([]jobRecord, []phaseResult) error { return nil }

func (w *mlLarge) replay(ls layerSet, _ []jobRecord) error {
	return ls.parse([][]byte{w.inputs[0].body, w.inputs[1].body})
}

// firstDone returns the completed job with the lowest sequence number.
func firstDone(recs []jobRecord) *jobRecord {
	var first *jobRecord
	for i := range recs {
		r := &recs[i]
		if r.err == nil && r.result != nil && (first == nil || r.seq < first.seq) {
			first = r
		}
	}
	return first
}
