// Command spectrald serves spectral partitioning over HTTP.
//
// It wraps the repro facade in a long-running daemon: clients upload
// netlists (content-addressed by a canonical-form hash), submit
// partitioning or ordering jobs against them, poll status and fetch
// results. A bounded worker pool executes jobs, an LRU cache reuses
// eigendecompositions across jobs on the same netlist, and /metrics
// exposes counters in the Prometheus text format.
//
// Usage:
//
//	spectrald [-addr :8090] [-workers N] [-queue N] [-cache N]
//	          [-max-netlists N] [-parallelism N] [-grace 30s]
//	          [-journal-dir DIR] [-max-queue-wait D]
//	          [-shed-policy none|degrade|reject]
//	          [-store-dir DIR]
//	          [-peer-self URL] [-peers URL,URL,...]
//	          [-debug-addr 127.0.0.1:8091] [-trace out.jsonl]
//	          [-trace-ring N] [-trace-chunks N] [-warm-start=true]
//
// -workers bounds how many jobs run concurrently; -parallelism bounds
// the goroutines the numerical kernels inside one job may use
// (0 = GOMAXPROCS). Results are bit-identical at every -parallelism
// setting; see DESIGN.md, "The parallelism model".
//
// -journal-dir makes the daemon crash-safe: accepted netlists, job
// submissions and terminal states are logged to an append-only,
// checksummed journal in that directory, and on startup the daemon
// replays it — finished jobs are served from their recorded results,
// interrupted jobs run again, and damaged journal tails are truncated
// with a warning rather than refusing to boot. See DESIGN.md, "Failure
// domains and recovery model".
//
// -max-queue-wait fails jobs that sat queued longer than the bound;
// -shed-policy selects what sustained queue pressure does to new jobs
// (degrade the ones whose method consumes d — MELO, VKP, order — to a
// cheaper eigenvector count, or reject early).
//
// -store-dir adds a persistent spectrum tier behind the in-memory LRU:
// computed and peer-fetched eigendecompositions are written through to
// CRC-framed files in that directory, so an LRU eviction loses nothing,
// and a restarted daemon serves warm requests by decoding instead of
// recomputing. Corrupt entries are quarantined on read, never served.
//
// Concurrent jobs needing a decomposition of the same netlist and model
// share one eigensolve; if it comes out smaller than the largest of
// them needs, one follow-up solve sized to that job serves the rest.
// There is nothing to configure.
//
// -peers joins a static shard of spectrald instances (comma-separated
// base URLs) with -peer-self naming this instance's own base URL as the
// peers spell it. Spectrum lookups route to the instance owning the
// netlist fingerprint (rendezvous hashing); a dead peer degrades to
// local compute, never to an error. See DESIGN.md, "The spectrum
// distribution tier: store, coalescing, sharding".
//
// POST /v1/netlists/{hash}/delta submits an incremental (ECO) job: the
// body's delta is applied to the stored base netlist and the result is
// partitioned with an eigensolve warm-started from the base's cached
// spectrum, plus a stability report against the base partition.
// -warm-start=false forces those solves cold (the answers are
// bit-identical either way; warm starting only skips work).
//
// Every job execution is traced (per-stage spans, kernel counters; see
// internal/trace): /metrics exposes the aggregates. -debug-addr opens a
// second listener with net/http/pprof, /debug/trace?job=<id> (recent
// span trees, filterable by job) and /debug/report (the text summary);
// keep it on a loopback or otherwise private address. -trace appends
// every finished span as a JSON line to a file.
//
// On SIGINT or SIGTERM the daemon stops accepting work (healthz flips
// to 503, submissions are refused), shuts the listener down, and lets
// in-flight jobs drain for -grace; jobs still running after the grace
// period are cancelled through their contexts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/specstore"
	"repro/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8090", "HTTP listen address")
		workers      = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, capped at 8)")
		queueDepth   = flag.Int("queue", 0, "job queue depth before 429 backpressure (0 = 64)")
		cacheSize    = flag.Int("cache", 0, "spectrum cache entries (0 = 32)")
		maxNetlists  = flag.Int("max-netlists", 0, "netlist store bound; the least recently used netlist is evicted first (0 = 128)")
		parallelism  = flag.Int("parallelism", 0, "worker goroutines per numerical kernel (0 = GOMAXPROCS)")
		grace        = flag.Duration("grace", 30*time.Second, "drain window for in-flight jobs on shutdown")
		journalDir   = flag.String("journal-dir", "", "durable job journal directory; empty = no crash safety")
		maxQueueWait = flag.Duration("max-queue-wait", 0, "fail jobs queued longer than this (0 = unbounded)")
		shedPolicy   = flag.String("shed-policy", "none", "overload response: none|degrade|reject")
		storeDir     = flag.String("store-dir", "", "persistent spectrum store directory; empty = in-memory cache only")
		peerSelf     = flag.String("peer-self", "", "this instance's base URL as shard peers spell it (required with -peers)")
		peers        = flag.String("peers", "", "comma-separated shard peer base URLs; empty = no sharding")
		debugAddr    = flag.String("debug-addr", "", "diagnostics listen address (pprof, /debug/trace, /debug/report); empty = disabled")
		traceOut     = flag.String("trace", "", "append finished spans as JSON lines to this file")
		traceRing    = flag.Int("trace-ring", 4096, "recent spans retained for /debug/trace")
		traceChunks  = flag.Int("trace-chunks", 0, "sample one in N parallel chunks as spans (0 = off)")
		warmStart    = flag.Bool("warm-start", true, "seed incremental (ECO delta) eigensolves from the base netlist's cached spectrum")
	)
	flag.Parse()
	parallel.SetLimit(*parallelism)
	policy, ok := jobs.ParseShedPolicy(*shedPolicy)
	if !ok {
		fmt.Fprintf(os.Stderr, "spectrald: unknown -shed-policy %q (want none|degrade|reject)\n", *shedPolicy)
		os.Exit(2)
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	if len(peerList) > 0 && *peerSelf == "" {
		fmt.Fprintln(os.Stderr, "spectrald: -peers requires -peer-self")
		os.Exit(2)
	}
	if err := run(config{
		addr:         *addr,
		workers:      *workers,
		queueDepth:   *queueDepth,
		cacheSize:    *cacheSize,
		maxNetlists:  *maxNetlists,
		grace:        *grace,
		journalDir:   *journalDir,
		maxQueueWait: *maxQueueWait,
		shedPolicy:   policy,
		storeDir:     *storeDir,
		peerSelf:     *peerSelf,
		peers:        peerList,
		debugAddr:    *debugAddr,
		traceOut:     *traceOut,
		traceRing:    *traceRing,
		traceChunks:  *traceChunks,
		noWarmStart:  !*warmStart,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "spectrald:", err)
		os.Exit(1)
	}
}

type config struct {
	addr                           string
	workers, queueDepth, cacheSize int
	maxNetlists                    int
	grace                          time.Duration
	journalDir                     string
	maxQueueWait                   time.Duration
	shedPolicy                     jobs.ShedPolicy
	storeDir                       string
	peerSelf                       string
	peers                          []string
	debugAddr, traceOut            string
	traceRing, traceChunks         int
	noWarmStart                    bool
}

func run(cfg config) error {
	ring := trace.NewRing(cfg.traceRing)
	sinks := []trace.Sink{ring}
	if cfg.traceOut != "" {
		f, err := os.OpenFile(cfg.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open trace file: %w", err)
		}
		defer f.Close()
		sinks = append(sinks, trace.NewJSONWriter(f))
	}
	tracer := trace.New(sinks...)
	tracer.SetChunkSampling(cfg.traceChunks)
	trace.SetGlobal(tracer)

	var jnl *journal.Journal
	var replay *journal.ReplayResult
	if cfg.journalDir != "" {
		var err error
		jnl, replay, err = journal.Open(cfg.journalDir, journal.Options{})
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		defer jnl.Close()
		for _, warn := range replay.Stats.Warnings {
			log.Printf("journal replay: %s", warn)
		}
	}

	var store specstore.Store
	if cfg.storeDir != "" {
		disk, err := specstore.OpenDisk(cfg.storeDir)
		if err != nil {
			return fmt.Errorf("open spectrum store: %w", err)
		}
		defer disk.Close()
		if q := disk.Stats().Quarantined; q > 0 {
			log.Printf("spectrum store: quarantined %d corrupt entries in %s", q, cfg.storeDir)
		}
		log.Printf("spectrum store: %d entries in %s", disk.Len(), cfg.storeDir)
		store = disk
	}

	pool := jobs.NewPool(jobs.Config{
		Workers:          cfg.workers,
		QueueDepth:       cfg.queueDepth,
		CacheEntries:     cfg.cacheSize,
		MaxQueueWait:     cfg.maxQueueWait,
		ShedPolicy:       cfg.shedPolicy,
		Journal:          jnl,
		Store:            store,
		DisableWarmStart: cfg.noWarmStart,
		MaxNetlists:      cfg.maxNetlists,
	})
	pool.SetTracer(tracer)
	srv := server.New(pool, server.Config{Tracer: tracer})
	if len(cfg.peers) > 0 {
		if err := srv.ConfigureSharding(cfg.peerSelf, cfg.peers); err != nil {
			return fmt.Errorf("configure sharding: %w", err)
		}
		log.Printf("shard ring: %s", srv.Ring())
	}
	if jnl != nil {
		stats, err := pool.Restore(replay)
		if err != nil {
			return fmt.Errorf("replay journal: %w", err)
		}
		log.Printf("journal replay: %d netlists, %d jobs re-enqueued, %d recovered terminal, %d cancelled, %d failed unrecoverable",
			stats.Netlists, stats.Reenqueued, stats.RecoveredTerminal, stats.CancelledOnReplay, stats.FailedOnReplay)
	}
	pool.Start()

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              cfg.debugAddr,
			Handler:           server.NewDebugHandler(tracer, ring),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("spectrald diagnostics on %s", cfg.debugAddr)
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("spectrald listening on %s", cfg.addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		// Listener died before any signal: shut the pool down hard.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = pool.Shutdown(shutdownCtx)
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills us

	log.Printf("signal received; draining (grace %s)", cfg.grace)
	srv.SetDraining(true)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	if err := pool.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain window expired; cancelled remaining jobs: %v", err)
	} else {
		log.Printf("all jobs drained")
	}
	return <-errc
}
