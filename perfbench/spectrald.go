package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/specstore"
	"repro/internal/trace"
)

// daemon is an in-process spectrald: the job pool and HTTP server the
// spectrald command wires up, served over a loopback httptest listener.
type daemon struct {
	pool  *jobs.Pool
	http  *httptest.Server
	jnl   *journal.Journal
	store *specstore.Disk
	dir   string
}

// bootOptions selects the daemon configuration of a workload.
type bootOptions struct {
	workers int
	// durableDir, when set, makes the pool durable: a group-commit
	// journal and a disk spectrum store under this directory.
	durableDir string
	tracer     *trace.Tracer
}

func boot(o bootOptions) (*daemon, error) {
	d := &daemon{dir: o.durableDir}
	cfg := jobs.Config{Workers: o.workers}
	if o.durableDir != "" {
		jnl, _, err := journal.Open(filepath.Join(o.durableDir, "journal"), journal.Options{})
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		store, err := specstore.OpenDisk(filepath.Join(o.durableDir, "spectra"))
		if err != nil {
			jnl.Close()
			return nil, fmt.Errorf("open spectrum store: %w", err)
		}
		d.jnl, d.store = jnl, store
		cfg.Journal, cfg.Store = jnl, store
	}
	d.pool = jobs.NewPool(cfg)
	if o.tracer != nil {
		d.pool.SetTracer(o.tracer)
	}
	d.pool.Start()
	d.http = httptest.NewServer(server.New(d.pool, server.Config{Tracer: o.tracer}))
	return d, nil
}

// close stops the server and the pool and removes any durable state.
func (d *daemon) close() error {
	d.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.pool.Shutdown(ctx)
	if d.jnl != nil {
		err = errors.Join(err, d.jnl.Close())
	}
	if d.store != nil {
		err = errors.Join(err, d.store.Close())
	}
	if d.dir != "" {
		err = errors.Join(err, os.RemoveAll(d.dir))
	}
	return err
}

// client is one closed-loop spectrald client.
type client struct {
	d  *daemon
	hc *http.Client
}

func newClient(d *daemon) *client {
	return &client{d: d, hc: d.http.Client()}
}

// do sends one request and decodes a JSON response with the wanted
// status code into out.
func (c *client) do(method, path, ctype string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, c.d.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// upload stores a text-format netlist and returns its content hash.
func (c *client) upload(body []byte) (string, error) {
	var st struct {
		Hash string `json:"hash"`
	}
	if err := c.do(http.MethodPost, "/v1/netlists?format=text", "text/plain", body, http.StatusCreated, &st); err != nil {
		return "", err
	}
	return st.Hash, nil
}

// submit posts a job request and returns the job ID.
func (c *client) submit(req map[string]any) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := c.do(http.MethodPost, "/v1/jobs", "application/json", body, http.StatusAccepted, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// submitDelta posts an ECO delta against base and returns the job ID and
// the mutated netlist's hash.
func (c *client) submitDelta(base string, body []byte) (id, mutHash string, err error) {
	var resp struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
		Netlist string `json:"netlist"`
	}
	if err := c.do(http.MethodPost, "/v1/netlists/"+base+"/delta", "application/json", body, http.StatusAccepted, &resp); err != nil {
		return "", "", err
	}
	return resp.Job.ID, resp.Netlist, nil
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	QueueSeconds    float64 `json:"queueSeconds"`
	SpectrumSeconds float64 `json:"spectrumSeconds"`
	SolveSeconds    float64 `json:"solveSeconds"`
}

// jobResult is the part of a finished job's result the benchmark checks.
type jobResult struct {
	Assign []int `json:"assign"`
	K      int   `json:"k"`
	NetCut int   `json:"netCut"`
}

// awaitDone blocks until job id finishes and returns when it did.
// Completion comes from the in-process Job.Done channel, not from
// polling, so no sleep quantum enters the measured latency.
func (c *client) awaitDone(id string) (time.Time, error) {
	j, ok := c.d.pool.Job(id)
	if !ok {
		return time.Time{}, fmt.Errorf("job %s: not in pool", id)
	}
	<-j.Done()
	return time.Now(), nil
}

// fetch reads a finished job's status and result over HTTP.
func (c *client) fetch(id string) (jobStatus, *jobResult, error) {
	var st jobStatus
	if err := c.do(http.MethodGet, "/v1/jobs/"+id, "", nil, http.StatusOK, &st); err != nil {
		return st, nil, err
	}
	var res struct {
		State  string     `json:"state"`
		Error  string     `json:"error"`
		Result *jobResult `json:"result"`
	}
	if err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", "", nil, http.StatusOK, &res); err != nil {
		return st, nil, err
	}
	if res.State != string(jobs.Done) || res.Result == nil {
		return st, nil, fmt.Errorf("job %s %s: %s", id, res.State, res.Error)
	}
	return st, res.Result, nil
}
