package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	spectral "repro"
	"repro/internal/journal"
	"repro/internal/specstore"
	"repro/internal/trace"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayer lists every per-layer metric of a traced run, in print order.
// A layer a workload does not load reads 0. BENCHMARK.json maps each to
// the end-to-end metric it should move.
var perLayer = []metricDef{
	{"server.upload_s", "s"},
	{"server.result_s", "s"},
	{"hypergraph.parse_s_per_mb", "s/MB"},
	{"jobs.queue_s", "s"},
	{"jobs.spectrum_s", "s"},
	{"jobs.solve_s", "s"},
	{"jobs.computed_per_job", "count"},
	{"speccache.hit_ratio", "ratio"},
	{"speccache.prefix_reuse", "count"},
	{"eigen.decompose_s", "s"},
	{"eigen.matvec_per_solve", "count"},
	{"eigen.reorth_skip_ratio", "ratio"},
	{"resilience.rung_lanczos", "ratio"},
	{"resilience.rung_dense_fallback", "ratio"},
	{"resilience.rung_degraded", "ratio"},
	{"melo.order_s", "s"},
	{"dprp.split_s", "s"},
	{"multilevel.coarsen_s", "s"},
	{"multilevel.refine_s", "s"},
	{"multilevel.levels", "count"},
	{"delta.apply_s", "s"},
	{"warm.decompose_s", "s"},
	{"warm.seeded_frac", "ratio"},
	{"warm.accepted_frac", "ratio"},
	{"warm.rejected_frac", "ratio"},
	{"journal.append_durable_s", "s"},
	{"journal.bytes_per_job", "B"},
	{"specstore.put_s", "s"},
	{"specstore.get_s", "s"},
	{"codec.encode_s", "s"},
	{"codec.decode_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// specModel is the clique model MELO jobs decompose under.
var specModel = spectral.Options{}.SpectrumSpec().Model

// replayReps is how often a replayed call is repeated; the median
// is reported.
const replayReps = 5

// layerSet collects per-layer values by metric name.
type layerSet map[string]float64

// timeMedian runs fn reps times and returns the median wall time.
func timeMedian(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts), nil
}

// fromPhase fills the layers the traced phase observed: the pool's stage
// seconds, spectrum tier and warm-start counters, the journal's byte
// count, and the tracer's counters and spans.
func (ls layerSet) fromPhase(ph phaseResult, t *trace.Tracer) {
	done := float64(ph.done())
	if done == 0 {
		return
	}
	var up, fetch, queue, spec, solve []float64
	for _, r := range ph.records {
		if r.err != nil {
			continue
		}
		if r.upload > 0 {
			up = append(up, r.upload)
		}
		fetch = append(fetch, r.fetch)
		queue = append(queue, r.status.QueueSeconds)
		spec = append(spec, r.status.SpectrumSeconds)
		solve = append(solve, r.status.SolveSeconds)
	}
	if len(up) > 0 {
		ls["server.upload_s"] = median(up)
	}
	ls["server.result_s"] = median(fetch)
	ls["jobs.queue_s"] = mean(queue)
	ls["jobs.spectrum_s"] = mean(spec)
	ls["jobs.solve_s"] = mean(solve)

	b, a := ph.before, ph.after
	computed := float64(a.Computed - b.Computed)
	ls["jobs.computed_per_job"] = computed / done
	if hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses; hits+misses > 0 {
		ls["speccache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	ls["warm.seeded_frac"] = float64(a.WarmSeeded-b.WarmSeeded) / done
	ls["warm.accepted_frac"] = float64(a.WarmAccepted-b.WarmAccepted) / done
	ls["warm.rejected_frac"] = float64(a.WarmRejected-b.WarmRejected) / done
	ls["journal.bytes_per_job"] = float64(ph.journalBytes) / done

	c := t.Counters()
	ls["speccache.prefix_reuse"] = float64(c["speccache.prefix-reuse"]) / done
	if computed > 0 {
		ls["eigen.matvec_per_solve"] = float64(c["eigen.matvec"]) / computed
	}
	if r, s := c["eigen.reorth"], c["eigen.reorth.skipped"]; r+s > 0 {
		ls["eigen.reorth_skip_ratio"] = float64(s) / float64(r+s)
	}
	var rungs int64
	for name, v := range c {
		if strings.HasPrefix(name, "resilience.rung.") {
			rungs += v
		}
	}
	if rungs > 0 {
		for _, r := range []string{"lanczos", "dense-fallback", "degraded"} {
			ls["resilience.rung_"+strings.ReplaceAll(r, "-", "_")] = float64(c["resilience.rung."+r]) / float64(rungs)
		}
	}
	for _, s := range t.SpanStats() {
		switch s.Name {
		case "multilevel.coarsen":
			ls["multilevel.coarsen_s"] = s.Total.Seconds() / done
		case "multilevel.refine":
			ls["multilevel.refine_s"] = s.Total.Seconds() / done
			ls["multilevel.levels"] = float64(s.Count) / done
		}
	}
}

// parse times spectral.LoadNetlist on the run's upload bodies.
func (ls layerSet) parse(bodies [][]byte) error {
	var secs, mb float64
	for _, b := range bodies {
		t := time.Now()
		if _, _, err := spectral.LoadNetlist(bytes.NewReader(b)); err != nil {
			return err
		}
		secs += time.Since(t).Seconds()
		mb += float64(len(b)) / 1e6
	}
	if mb > 0 {
		ls["hypergraph.parse_s_per_mb"] = secs / mb
	}
	return nil
}

// decompose times cold spectral.DecomposeCtx on hs and returns the
// spectra for the replays that follow it.
func (ls layerSet) decompose(hs []*spectral.Netlist, d int) ([]*spectral.Spectrum, error) {
	sps := make([]*spectral.Spectrum, len(hs))
	ts := make([]float64, len(hs))
	for i, h := range hs {
		t := time.Now()
		sp, err := spectral.DecomposeCtx(context.Background(), h, specModel, d)
		if err != nil {
			return nil, fmt.Errorf("decompose replay: %w", err)
		}
		ts[i], sps[i] = time.Since(t).Seconds(), sp
	}
	ls["eigen.decompose_s"] = median(ts)
	return sps, nil
}

// warmDecompose times spectral.DecomposeWarm seeded with base on the same
// netlists decompose ran on cold.
func (ls layerSet) warmDecompose(hs []*spectral.Netlist, base *spectral.Spectrum, d int) ([]*spectral.Spectrum, error) {
	sps := make([]*spectral.Spectrum, len(hs))
	ts := make([]float64, len(hs))
	for i, h := range hs {
		t := time.Now()
		sp, _, err := spectral.DecomposeWarm(h, specModel, d, base)
		if err != nil {
			return nil, fmt.Errorf("warm decompose replay: %w", err)
		}
		ts[i], sps[i] = time.Since(t).Seconds(), sp
	}
	ls["warm.decompose_s"] = median(ts)
	return sps, nil
}

// order times MELO ordering on a precomputed spectrum.
func (ls layerSet) order(hs []*spectral.Netlist, sps []*spectral.Spectrum, d int) error {
	ts := make([]float64, len(hs))
	for i, h := range hs {
		t := time.Now()
		if _, err := spectral.OrderModulesWithSpectrum(context.Background(), h, sps[i], d, 0); err != nil {
			return fmt.Errorf("order replay: %w", err)
		}
		ts[i] = time.Since(t).Seconds()
	}
	ls["melo.order_s"] = median(ts)
	return nil
}

// split times the DP-RP split of a K ≥ 3 MELO partition: the whole
// PartitionWithSpectrum call less the ordering it starts with.
func (ls layerSet) split(hs []*spectral.Netlist, sps []*spectral.Spectrum, k, d int) error {
	ts := make([]float64, len(hs))
	for i, h := range hs {
		t := time.Now()
		if _, err := spectral.PartitionWithSpectrum(context.Background(), h, sps[i], spectral.Options{K: k, D: d}); err != nil {
			return fmt.Errorf("split replay: %w", err)
		}
		ts[i] = time.Since(t).Seconds()
	}
	ls["dprp.split_s"] = max(0, median(ts)-ls["melo.order_s"])
	return nil
}

// durableLayers times the write path of a durable daemon on scratch
// state: spectrum codec, disk store puts and gets, and durable journal
// appends of netlist-sized records.
func (ls layerSet) durableLayers(hs []*spectral.Netlist, sps []*spectral.Spectrum) error {
	dir, err := os.MkdirTemp(scratchRoot, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	data, err := spectral.EncodeSpectrum(sps[0])
	if err != nil {
		return err
	}
	if ls["codec.encode_s"], err = timeMedian(replayReps, func() error {
		_, err := spectral.EncodeSpectrum(sps[0])
		return err
	}); err != nil {
		return err
	}
	if ls["codec.decode_s"], err = timeMedian(replayReps, func() error {
		_, err := spectral.DecodeSpectrum(data, hs[0])
		return err
	}); err != nil {
		return err
	}

	store, err := specstore.OpenDisk(filepath.Join(dir, "spectra"))
	if err != nil {
		return err
	}
	defer store.Close()
	entry := specstore.Entry{Pairs: sps[0].Pairs(), Data: data}
	key := func(i int) specstore.Key {
		return specstore.Key{Hash: fmt.Sprintf("%064x", i+1), Model: specModel.String()}
	}
	i := 0
	if ls["specstore.put_s"], err = timeMedian(replayReps, func() error {
		i++
		return store.Put(key(i), entry)
	}); err != nil {
		return err
	}
	i = 0
	if ls["specstore.get_s"], err = timeMedian(replayReps, func() error {
		i++
		if _, ok, err := store.Get(key(i)); err != nil || !ok {
			return fmt.Errorf("specstore get %d: ok=%v err=%v", i, ok, err)
		}
		return nil
	}); err != nil {
		return err
	}

	jnl, _, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return err
	}
	defer jnl.Close()
	var body strings.Builder
	if err := spectral.SaveNetlist(&body, "eco", hs[0]); err != nil {
		return err
	}
	rec := journal.Record{Type: journal.TypeNetlist, Name: "eco", Netlist: []byte(body.String())}
	i = 0
	ls["journal.append_durable_s"], err = timeMedian(replayReps, func() error {
		i++
		rec.Hash = fmt.Sprintf("%064x", i)
		rec.UnixNS = time.Now().UnixNano()
		return jnl.AppendDurable(rec)
	})
	return err
}
