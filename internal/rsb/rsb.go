// Package rsb implements recursive spectral bipartitioning (RSB), the
// multi-way baseline of the paper's Table 4: "RSB constructs ratio cut
// bipartitionings by choosing the best of all splits of the Fiedler
// vector, and the algorithm is iteratively applied to the largest
// remaining cluster" until k clusters exist.
package rsb

import (
	"context"
	"fmt"

	"repro/internal/dprp"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/partition"
	"repro/internal/resilience"
	"repro/internal/sb"
)

// Options configures RSB.
type Options struct {
	// K is the target number of clusters, >= 2.
	K int
	// Model is the clique model used when building each sub-hypergraph's
	// graph. The paper's Table 4 uses the partitioning-specific model.
	Model graph.CliqueModel
}

// Partition runs RSB on the netlist h and returns a k-way partitioning.
func Partition(h *hypergraph.Hypergraph, opts Options) (*partition.Partition, error) {
	return PartitionCtx(context.Background(), h, opts)
}

// PartitionCtx is Partition with cooperative cancellation (checked
// before each bisection and inside every eigensolve) and with each
// bisection's eigensolve routed through the resilience retry ladder, so
// one hard-to-converge cluster does not fail the whole recursion.
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*partition.Partition, error) {
	k := opts.K
	if k < 2 {
		return nil, fmt.Errorf("rsb: k = %d, want >= 2", k)
	}
	n := h.NumModules()
	if k > n {
		return nil, fmt.Errorf("rsb: k = %d exceeds %d modules", k, n)
	}
	assign := make([]int, n)
	// clusters[c] holds original module indices of cluster c.
	clusters := [][]int{allModules(n)}
	for len(clusters) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Split the largest remaining cluster.
		largest := 0
		for c := 1; c < len(clusters); c++ {
			if len(clusters[c]) > len(clusters[largest]) {
				largest = c
			}
		}
		if len(clusters[largest]) < 2 {
			return nil, fmt.Errorf("rsb: cannot reach k = %d, largest remaining cluster has %d modules", k, len(clusters[largest]))
		}
		left, right, err := bisect(ctx, h, clusters[largest], opts)
		if err != nil {
			return nil, err
		}
		clusters[largest] = left
		clusters = append(clusters, right)
	}
	for c, members := range clusters {
		for _, m := range members {
			assign[m] = c
		}
	}
	return partition.New(assign, k)
}

// bisect splits one cluster (given as original module indices) by the best
// ratio-cut split of its Fiedler ordering, falling back to a component
// split when the induced sub-hypergraph is disconnected.
func bisect(ctx context.Context, h *hypergraph.Hypergraph, members []int, opts Options) (left, right []int, err error) {
	sub, back := h.Induce(members)
	order := make([]int, sub.NumModules())
	for i := range order {
		order[i] = i
	}
	if sub.NumModules() != len(members) {
		return nil, nil, fmt.Errorf("rsb: induced sub-hypergraph lost modules")
	}

	g, err := graph.FromHypergraph(sub, opts.Model)
	if err != nil {
		return nil, nil, err
	}
	if comps := g.Components(); len(comps) > 1 {
		// Disconnected: the Fiedler vector is degenerate (λ2 = 0). Split
		// by grouping components greedily toward half the modules — the
		// cut is zero, which is optimal.
		order = order[:0]
		for _, c := range comps {
			order = append(order, c...)
		}
	} else {
		sol, derr := resilience.SolveEigen(ctx, g.Laplacian(), 2, resilience.EigenPolicy{})
		if derr != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, cerr
			}
			return nil, nil, fmt.Errorf("rsb: eigensolve failed on %d-module cluster: %v", len(members), derr)
		}
		order, err = sb.FiedlerOrder(g, sol.Dec)
		if err != nil {
			return nil, nil, err
		}
	}

	res, err := dprp.BestRatioCutSplit(sub, order)
	if err != nil {
		return nil, nil, err
	}
	// Both sides keep at least one module.
	pos := min(max(res.Pos, 1), len(order)-1)
	for i, v := range order {
		orig := back[v]
		if i < pos {
			left = append(left, orig)
		} else {
			right = append(right, orig)
		}
	}
	return left, right, nil
}

func allModules(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}
