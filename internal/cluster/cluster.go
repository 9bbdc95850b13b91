// Package cluster builds hierarchical clusterings of netlists by
// recursive spectral bipartitioning with MELO orderings — the clustering
// application the paper's abstract highlights ("top-down hierarchical
// cell placement", netlist clustering [3][24]).
//
// The tree records every split; Flatten extracts a k-way partitioning by
// always splitting the largest frontier cluster (the RSB policy), and
// Dendrogram renders the hierarchy.
package cluster

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/dprp"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/melo"
	"repro/internal/partition"
	"repro/internal/resilience"
)

// Options configures tree construction.
type Options struct {
	// LeafSize stops splitting clusters at or below this size
	// (default 8).
	LeafSize int
	// MaxDepth caps the recursion depth (default 16).
	MaxDepth int
	// D is the number of eigenvectors per MELO split (default 5; splits
	// happen on small sub-netlists, so a moderate d suffices).
	D int
	// Model is the clique model for sub-netlist graphs.
	Model graph.CliqueModel
}

// Node is one cluster in the hierarchy.
type Node struct {
	// Members are the original module indices in this cluster, sorted.
	Members []int
	// Cut is the ratio cut of the split that created the children
	// (0 for leaves).
	Cut float64
	// Left, Right are the sub-clusters (nil for leaves).
	Left, Right *Node
	// Depth is the node's distance from the root.
	Depth int
}

// IsLeaf reports whether the node was not split.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Leaves returns the leaf nodes left-to-right.
func (n *Node) Leaves() []*Node {
	if n.IsLeaf() {
		return []*Node{n}
	}
	return append(n.Left.Leaves(), n.Right.Leaves()...)
}

// Size returns the number of modules in the cluster.
func (n *Node) Size() int { return len(n.Members) }

// Build constructs the hierarchy for a netlist.
func Build(h *hypergraph.Hypergraph, opts Options) (*Node, error) {
	leaf := opts.LeafSize
	if leaf <= 0 {
		leaf = 8
	}
	if leaf < 2 {
		leaf = 2
	}
	depth := opts.MaxDepth
	if depth <= 0 {
		depth = 16
	}
	d := opts.D
	if d <= 0 {
		d = 5
	}
	all := make([]int, h.NumModules())
	for i := range all {
		all[i] = i
	}
	return build(h, all, 0, leaf, depth, d, opts.Model)
}

func build(h *hypergraph.Hypergraph, members []int, depth, leaf, maxDepth, d int, model graph.CliqueModel) (*Node, error) {
	node := &Node{Members: append([]int(nil), members...), Depth: depth}
	sort.Ints(node.Members)
	if len(members) <= leaf || depth >= maxDepth {
		return node, nil
	}
	left, right, cut, err := bisect(h, node.Members, d, model)
	if err != nil {
		return nil, err
	}
	if len(left) == 0 || len(right) == 0 {
		return node, nil // unsplittable; keep as leaf
	}
	node.Cut = cut
	node.Left, err = build(h, left, depth+1, leaf, maxDepth, d, model)
	if err != nil {
		return nil, err
	}
	node.Right, err = build(h, right, depth+1, leaf, maxDepth, d, model)
	if err != nil {
		return nil, err
	}
	return node, nil
}

// bisect splits one cluster by the best ratio-cut split of a MELO
// ordering of its induced sub-netlist, falling back to a component-based
// split when the sub-netlist is disconnected.
func bisect(h *hypergraph.Hypergraph, members []int, d int, model graph.CliqueModel) (left, right []int, cut float64, err error) {
	sub, back := h.Induce(members)
	g, err := graph.FromHypergraph(sub, model)
	if err != nil {
		return nil, nil, 0, err
	}
	var orders [][]int
	if comps := g.Components(); len(comps) > 1 {
		var order []int
		for _, c := range comps {
			order = append(order, c...)
		}
		orders = append(orders, order)
	} else {
		want := d + 1
		if want > g.N() {
			want = g.N()
		}
		sol, derr := resilience.SolveEigen(context.TODO(), g.Laplacian(), want, resilience.EigenPolicy{MinD: want})
		if derr != nil {
			return nil, nil, 0, fmt.Errorf("cluster: eigensolve on %d modules: %v", len(members), derr)
		}
		// Best of all four MELO weighting schemes (the paper's
		// best-of-orderings protocol); the eigensolve dominates, so the
		// extra orderings are nearly free.
		for s := melo.Scheme(0); s < melo.NumSchemes; s++ {
			mo := melo.NewOptions()
			mo.D = d
			mo.Scheme = s
			res, merr := melo.Order(g, sol.Dec, mo)
			if merr != nil {
				return nil, nil, 0, merr
			}
			orders = append(orders, res.Order)
		}
	}
	var best dprp.SplitResult
	var bestOrder []int
	for i, order := range orders {
		// Quarter-balance keeps the hierarchy meaningful: unrestricted
		// ratio cut on small noisy sub-netlists peels single modules.
		split, serr := dprp.BestRatioCutSplitBalanced(sub, order, 0.25)
		if serr != nil {
			return nil, nil, 0, serr
		}
		if i == 0 || split.Cut < best.Cut {
			best = split
			bestOrder = order
		}
	}
	for i, v := range bestOrder {
		orig := back[v]
		if i < best.Pos {
			left = append(left, orig)
		} else {
			right = append(right, orig)
		}
	}
	return left, right, best.Cut, nil
}

// Flatten extracts a k-way partitioning from the tree by repeatedly
// splitting the largest frontier cluster. If the tree has fewer than k
// splittable nodes the result has fewer clusters; the returned partition
// always uses exactly the number of clusters produced.
func (n *Node) Flatten(h *hypergraph.Hypergraph, k int) (*partition.Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k = %d", k)
	}
	frontier := []*Node{n}
	for len(frontier) < k {
		// Largest splittable frontier node.
		best := -1
		for i, nd := range frontier {
			if nd.IsLeaf() {
				continue
			}
			if best == -1 || nd.Size() > frontier[best].Size() {
				best = i
			}
		}
		if best == -1 {
			break
		}
		nd := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		frontier = append(frontier, nd.Left, nd.Right)
	}
	assign := make([]int, h.NumModules())
	for c, nd := range frontier {
		for _, m := range nd.Members {
			assign[m] = c
		}
	}
	return partition.New(assign, len(frontier))
}

// Dendrogram writes an indented rendering of the tree.
func (n *Node) Dendrogram(w io.Writer, names []string) {
	var walk func(nd *Node)
	walk = func(nd *Node) {
		indent := ""
		for i := 0; i < nd.Depth; i++ {
			indent += "  "
		}
		if nd.IsLeaf() {
			label := fmt.Sprintf("%d modules", nd.Size())
			if names != nil && nd.Size() <= 6 {
				label = ""
				for i, m := range nd.Members {
					if i > 0 {
						label += " "
					}
					label += names[m]
				}
			}
			fmt.Fprintf(w, "%s- leaf: %s\n", indent, label)
			return
		}
		fmt.Fprintf(w, "%s+ %d modules (split ratio cut %.4g)\n", indent, nd.Size(), nd.Cut)
		walk(nd.Left)
		walk(nd.Right)
	}
	walk(n)
}
