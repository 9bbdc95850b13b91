package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	spectral "repro"
	"repro/internal/bench"
	"repro/internal/delta"
	"repro/internal/speccache"
)

// Input streams: each kind of input draws its seeds from its own stream
// of the workload seed, so adding jobs to one never shifts another.
const (
	streamJobs uint64 = iota + 1
	streamOrder
	streamDeltas
)

// subSeed derives a nonzero generator seed from the workload seed, a
// stream and an index (splitmix64), so every input of a run follows from
// --seed alone. Zero is avoided: GenerateBenchmarkSeeded reads it as
// "the canonical instance".
func subSeed(seed int64, stream, i uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// circuit is one generated netlist with its upload body.
type circuit struct {
	h    *spectral.Netlist
	body []byte
	hash string
}

// maxGenAttempts bounds the seeds tried for one input before giving up.
const maxGenAttempts = 16

// generate synthesizes one instance of class at scale. Some seeds make
// GenerateBenchmarkSeeded fail (it reports a disconnected netlist); the
// next derived seed is then tried, the failure is counted in *skips, and
// the caller still gets its input, so a failed seed never shrinks the
// job count and the same workload seed always skips the same seeds.
func generate(class string, scale float64, seed int64, stream, index uint64, skips *int) (*circuit, error) {
	var lastErr error
	for a := uint64(0); a < maxGenAttempts; a++ {
		s := subSeed(seed, stream, index*maxGenAttempts+a)
		h, err := spectral.GenerateBenchmarkSeeded(class, scale, s)
		if err != nil {
			*skips++
			lastErr = err
			continue
		}
		return newCircuit(class, h)
	}
	return nil, fmt.Errorf("generate %s: %d seeds failed, last: %w", class, maxGenAttempts, lastErr)
}

// canonical generates the seed-independent instance of class at scale.
// Set-up warm-up jobs use it, so the set-up does the same work under
// every workload seed and setup_s does not vary with the inputs.
func canonical(class string, scale float64) (*circuit, error) {
	h, err := spectral.GenerateBenchmarkSeeded(class, scale, 0)
	if err != nil {
		return nil, fmt.Errorf("generate canonical %s: %w", class, err)
	}
	return newCircuit(class, h)
}

func newCircuit(class string, h *spectral.Netlist) (*circuit, error) {
	var buf bytes.Buffer
	if err := spectral.SaveNetlist(&buf, class, h); err != nil {
		return nil, fmt.Errorf("serialize %s: %w", class, err)
	}
	return &circuit{h: h, body: buf.Bytes(), hash: speccache.Fingerprint(h)}, nil
}

// scaleTo returns the scale that gives class about n modules.
func scaleTo(class string, n int) (float64, error) {
	c, err := bench.Lookup(class)
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(c.Modules), nil
}

// coldFlatClasses are the Table-1 circuits cold-flat cycles through.
// struct is left out: its eigensolve time varies threefold between
// seeds of the same size, which would make per-run medians depend on
// which struct instances a seed draws.
var coldFlatClasses = []string{"bm1", "prim1", "prim2", "test02", "test03", "test04", "test05", "test06", "19ks"}

// coldFlatN is the module count every cold-flat circuit is rescaled to,
// so job times form one cluster and the tail percentile does not jump
// between circuit classes as the job count per run varies.
const coldFlatN = 1000

// coldFlatCircuit is the i-th distinct circuit of a cold-flat run.
func coldFlatCircuit(seed int64, stream, i uint64, skips *int) (*circuit, error) {
	class := coldFlatClasses[i%uint64(len(coldFlatClasses))]
	scale, err := scaleTo(class, coldFlatN)
	if err != nil {
		return nil, err
	}
	return generate(class, scale, seed, stream, i, skips)
}

// sweepClasses are the n≈3k circuits cached-sweep prewarms.
var sweepClasses = []string{"prim2", "test05", "19ks"}

// sweepJob is one (circuit, K, d) point of the cached-sweep grid.
type sweepJob struct {
	circuit int
	k, d    int
}

// sweepOrder returns the K∈{2,3,4} × d∈{2,5,10} × circuit grid in a
// seeded order; the timed phase cycles through it.
func sweepOrder(seed int64) []sweepJob {
	var grid []sweepJob
	for c := range sweepClasses {
		for _, k := range []int{2, 3, 4} {
			for _, d := range []int{2, 5, 10} {
				grid = append(grid, sweepJob{circuit: c, k: k, d: d})
			}
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamOrder, 0)))
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return grid
}

// ecoDelta draws the i-th ECO delta against base: one to three edits,
// cycling through adding a short net, removing a net and repinning a
// net. Only nets whose modules all sit on at least two other nets are
// removed or repinned, so no module is left unconnected.
func ecoDelta(base *spectral.Netlist, seed int64, i uint64) *delta.Delta {
	rng := rand.New(rand.NewSource(subSeed(seed, streamDeltas, i)))
	n := base.NumModules()
	used := map[string]bool{}
	pickNet := func() string {
		for {
			e := rng.Intn(base.NumNets())
			name := base.NetNames[e]
			if used[name] {
				continue
			}
			ok := true
			for _, m := range base.Nets[e] {
				if base.Degree(m) < 3 {
					ok = false
					break
				}
			}
			if ok {
				used[name] = true
				return name
			}
		}
	}
	near := func(size int) []int {
		// A net over nearby module indices, like a local ECO fix; the
		// generator lays clusters out in index order.
		lo := rng.Intn(n - 64)
		seen := map[int]bool{}
		var mods []int
		for len(mods) < size {
			m := lo + rng.Intn(64)
			if !seen[m] {
				seen[m] = true
				mods = append(mods, m)
			}
		}
		return mods
	}
	d := &delta.Delta{}
	ops := 1 + rng.Intn(3)
	for o := 0; o < ops; o++ {
		switch (int(i) + o) % 3 {
		case 0:
			d.AddNets = append(d.AddNets, delta.NetChange{
				Name: fmt.Sprintf("eco_%d_%d", i, o), Modules: near(2 + rng.Intn(3))})
		case 1:
			d.RemoveNets = append(d.RemoveNets, pickNet())
		case 2:
			d.SetPins = append(d.SetPins, delta.NetChange{Name: pickNet(), Modules: near(2 + rng.Intn(3))})
		}
	}
	return d
}

// deltaBody is the JSON body of a delta submission.
func deltaBody(d *delta.Delta, k, dim int) ([]byte, error) {
	return json.Marshal(map[string]any{"delta": d, "method": "melo", "k": k, "d": dim})
}
