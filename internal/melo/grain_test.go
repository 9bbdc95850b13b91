package melo

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// BenchmarkScanCrossover times a d = 10 MELO ordering serially and with
// its gain scans sharded across two workers on either side of
// scanGrain; the sharded variant ignores the grain, so the benchmark
// shows where sharding starts to pay. The grain is set at the
// crossover it measures:
//
//	go test -run '^$' -bench ScanCrossover -count 5 ./internal/melo/
func BenchmarkScanCrossover(b *testing.B) {
	for _, n := range []int{1000, 2000, 4096, 8192} {
		g := graph.RandomConnected(n, 3*n, int64(n))
		dec, err := decomposeB(g, 10)
		if err != nil {
			b.Fatal(err)
		}
		opts := NewOptions()
		for _, run := range []struct {
			name           string
			workers, grain int
		}{{"serial", 1, scanGrain}, {"workers=2", 2, 1}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, run.name), func(b *testing.B) {
				opts.Workers = run.workers
				for i := 0; i < b.N; i++ {
					if _, err := orderGrain(context.Background(), g, dec, opts, run.grain); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
