// Command perfbench is the repository's end-to-end benchmark: it boots an
// in-process spectrald (jobs.NewPool + server.New behind httptest), drives
// one closed-loop workload against it over HTTP, checks every answer and
// prints the metrics as one JSON object on the last line of standard
// output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs an untraced and a traced half and reports the
// per-layer metrics, measured from outside the program: the pool's
// public stage timings and counters, the tracer's existing counters and
// spans, and the benchmark's own timed calls into each layer's public
// functions on the run's inputs.
//
// Workloads: cold-flat, cached-sweep, eco-durable, ml-large (see
// workloads.go and BENCHMARK.json for what each loads and bypasses).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// setupReps is how many times a run boots and preloads the daemon;
// setup_s is the median, and the last instance serves the timed phase.
const setupReps = 5

// scratchRoot holds a run's journals and spectrum stores, inside the
// checkout the benchmark runs from.
var scratchRoot = filepath.Join(".bench_build", "run")

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	correct, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(2)
	}
}

// run executes one benchmark run and reports whether every answer passed
// the correctness gate.
func run() (bool, error) {
	name := flag.String("workload", "", "workload: cold-flat|cached-sweep|eco-durable|ml-large")
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return false, errors.New("want --seconds > 0 and --trace 0|1")
	}
	w, err := newWorkload(*name)
	if err != nil {
		return false, err
	}
	host := newHostContext()
	parallel.SetLimit(w.limit())
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return false, err
	}

	t := time.Now()
	skipped, err := w.prepare(*seed, *seconds)
	if err != nil {
		return false, fmt.Errorf("prepare inputs: %w", err)
	}
	fmt.Printf("inputs: %s seed=%d generated in %.2fs, generator seeds skipped=%d\n",
		*name, *seed, time.Since(t).Seconds(), skipped)

	var tracer *trace.Tracer
	if *traced == 1 {
		tracer = trace.New()
		tracer.SetEnabled(false)
	}
	d, setups, err := setUp(w, tracer)
	if err != nil {
		return false, err
	}
	defer d.close()
	fmt.Printf("setup: %d repetitions, seconds:", len(setups))
	for _, s := range setups {
		fmt.Printf(" %.3f", s)
	}
	fmt.Println()

	var next atomic.Int64
	var phases []phaseResult
	if *traced == 0 {
		phases = append(phases, runPhase(w, d, &next, dur(*seconds)))
	} else {
		phases = append(phases, runPhase(w, d, &next, dur(*seconds/2)))
		tracer.SetEnabled(true)
		phases = append(phases, runPhase(w, d, &next, dur(*seconds/2)))
		tracer.SetEnabled(false)
	}

	failed, firstErr := 0, error(nil)
	var all []jobRecord
	for _, ph := range phases {
		f, err := checkJobs(w, ph.records)
		failed += f
		if firstErr == nil {
			firstErr = err
		}
		all = append(all, ph.records...)
	}
	if err := w.checkRun(all, phases); err != nil {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", firstErr)
	}
	attempted := 0
	for _, ph := range phases {
		attempted += len(ph.records)
	}

	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if *traced == 0 {
		if err := endToEnd(rep.Metrics, phases[0], setups); err != nil {
			return false, err
		}
	} else {
		ls := layerSet{}
		ls.fromPhase(phases[1], tracer)
		if jps := jobsPerSec(phases[0].done(), phases[0].elapsed); jps > 0 {
			ls["trace.overhead_frac"] = 1 - jobsPerSec(phases[1].done(), phases[1].elapsed)/jps
		}
		if err := w.replay(ls, phases[1].okRecords()); err != nil {
			return false, fmt.Errorf("layer replay: %w", err)
		}
		for _, m := range perLayer {
			rep.Metrics[m.name] = metricValue{Value: ls[m.name], Unit: m.unit}
		}
	}
	fmt.Println(cutByD(all))
	fmt.Println(host)
	out, err := json.Marshal(rep)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return rep.Correct, nil
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp boots and preloads the daemon setupReps times and returns the
// last instance with every repetition's wall time.
func setUp(w workload, tracer *trace.Tracer) (*daemon, []float64, error) {
	var (
		d      *daemon
		setups []float64
	)
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
		runtime.GC()
		t := time.Now()
		o := bootOptions{workers: w.clients(), tracer: tracer}
		if w.durable() {
			dir, err := os.MkdirTemp(scratchRoot, "durable-")
			if err != nil {
				return nil, nil, err
			}
			o.durableDir = dir
		}
		var err error
		if d, err = boot(o); err != nil {
			return nil, nil, fmt.Errorf("boot: %w", err)
		}
		if err := w.preload(newClient(d)); err != nil {
			d.close()
			return nil, nil, fmt.Errorf("preload: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return d, setups, nil
}

// phaseResult is one timed closed-loop phase.
type phaseResult struct {
	records       []jobRecord
	elapsed       time.Duration
	cpu           float64
	alloc         uint64
	before, after jobs.Stats
	journalBytes  uint64
}

func (p phaseResult) okRecords() []jobRecord {
	var ok []jobRecord
	for _, r := range p.records {
		if r.err == nil {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].seq < ok[j].seq })
	return ok
}

func (p phaseResult) done() int { return len(p.okRecords()) }

// runPhase drives the workload's clients in a closed loop: each sends its
// next job only after the previous one returned, until the phase's time
// is up. Jobs started before the deadline finish and count.
func runPhase(w workload, d *daemon, next *atomic.Int64, length time.Duration) phaseResult {
	runtime.GC()
	ph := phaseResult{before: d.pool.Stats()}
	var jb0 uint64
	if d.jnl != nil {
		jb0 = d.jnl.Stats().BytesAppended
	}
	cpu0, alloc0 := cpuSeconds(), allocBytes()
	start := time.Now()
	deadline := start.Add(length)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(d)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				rec := w.job(cl, i)
				if errors.Is(rec.err, errExhausted) {
					return
				}
				rec.seq = i
				mu.Lock()
				ph.records = append(ph.records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuSeconds() - cpu0
	ph.alloc = allocBytes() - alloc0
	ph.after = d.pool.Stats()
	if d.jnl != nil {
		ph.journalBytes = d.jnl.Stats().BytesAppended - jb0
	}
	return ph
}

// checkJobs runs the workload's answer check on every job and counts
// failures, including jobs that never returned an answer.
func checkJobs(w workload, recs []jobRecord) (int, error) {
	failed := 0
	var first error
	for i := range recs {
		r := &recs[i]
		if r.err == nil {
			r.err = w.check(r)
		}
		if r.err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("job %d: %w", r.seq, r.err)
			}
		}
	}
	return failed, first
}

// cutByD reports the mean net cut per requested d, the quantity the
// paper's title is about: on cached-sweep it should fall as d grows.
func cutByD(recs []jobRecord) string {
	sum, cnt := map[int]float64{}, map[int]int{}
	for _, r := range recs {
		if r.err == nil {
			sum[r.d] += float64(r.cut)
			cnt[r.d]++
		}
	}
	ds := make([]int, 0, len(cnt))
	for d := range cnt {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	out := "netcut_mean by d:"
	for _, d := range ds {
		out += fmt.Sprintf(" d=%d %.1f (%d jobs)", d, sum[d]/float64(cnt[d]), cnt[d])
	}
	return out
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(m map[string]metricValue, ph phaseResult, setups []float64) error {
	ok := ph.okRecords()
	if len(ok) == 0 {
		return errors.New("no job completed in the timed phase")
	}
	lat := make([]float64, len(ok))
	cuts := make([]float64, len(ok))
	for i, r := range ok {
		lat[i], cuts[i] = r.latency, float64(r.cut)
	}
	tailV, pct := tail(lat)
	_, idx := tailPercentile(len(lat))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Printf("jobs: %d done in %.2fs; job_tail_s is p%.1f (%d jobs above it); latency IQR %.3f of median\n",
		len(ok), ph.elapsed.Seconds(), pct, len(lat)-1-idx, iqrFrac(lat))
	n := float64(len(ok))
	set := func(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }
	set("setup_s", "s", median(setups))
	set("job_p50_s", "s", median(lat))
	set("job_tail_s", "s", tailV)
	set("jobs_per_s", "1/s", jobsPerSec(len(ok), ph.elapsed))
	set("cpu_s_per_job", "s", ph.cpu/n)
	set("peak_rss_mb", "MiB", rss)
	set("alloc_mb_per_job", "MiB", float64(ph.alloc)/n/(1<<20))
	set("netcut_mean", "count", mean(cuts))
	return nil
}
