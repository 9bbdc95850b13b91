package experiments

import (
	"fmt"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/melo"
	"repro/internal/partition"
	"repro/internal/resilience"
	"repro/internal/vecpart"
)

// Figure1 reproduces the paper's illustrative figure: a small example
// graph, its Laplacian spectrum, the vertex vectors of the
// vector-partitioning instance, and a numeric verification of the
// reduction identity Σ_h ‖Y_h‖² = n·H − f(P_k) on a sample partition.
func Figure1(l *Lab) error {
	w := l.Config().Out
	// A 6-vertex graph with two obvious triangles joined by one edge —
	// the canonical two-cluster example.
	g := graph.MustNew(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
		{U: 2, V: 3, W: 1},
	})
	dec, err := eigen.SymEig(g.LaplacianDense())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1: the graph -> vector partitioning reduction")
	fmt.Fprintln(w, "graph: two triangles {0,1,2} and {3,4,5} joined by edge (2,3)")
	fmt.Fprintf(w, "Laplacian eigenvalues: ")
	for _, v := range dec.Values {
		fmt.Fprintf(w, "%.4f ", v)
	}
	fmt.Fprintln(w)

	n := g.N()
	H := dec.Values[n-1] + 0.5
	vecs, err := vecpart.FromDecomposition(dec, n, vecpart.MaxSum, H)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "vertex vectors y_i (d = n = %d, H = %.4f, scaling sqrt(H-lambda_j)):\n", n, H)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "  y_%d = [", i)
		for j, v := range vecs.Row(i) {
			if j > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%+.3f", v)
		}
		fmt.Fprintln(w, "]")
	}
	p := partition.MustNew([]int{0, 0, 0, 1, 1, 1}, 2)
	obj := vecs.SumSquaredSubsets(p)
	f := partition.F(g, p)
	fmt.Fprintf(w, "partition {0,1,2}|{3,4,5}: f(P) = %.4f (the single cut edge, counted twice)\n", f)
	fmt.Fprintf(w, "vector objective Sum_h ||Y_h||^2 = %.4f;  n*H - f = %.4f  (identical: the reduction is exact)\n",
		obj, float64(n)*H-f)
	bad := partition.MustNew([]int{0, 1, 0, 1, 0, 1}, 2)
	fmt.Fprintf(w, "a bad partition cuts f = %.4f and scores only %.4f — maximizing the vector objective IS minimizing the cut\n",
		partition.F(g, bad), vecs.SumSquaredSubsets(bad))
	fmt.Fprintln(w)
	return nil
}

// Figure2 walks MELO step by step on a small two-cluster netlist, tracing
// the inserted vertex, the running objective ‖Y_S‖² and the value of H —
// the runnable counterpart of the paper's pseudocode figure.
func Figure2(l *Lab) error {
	w := l.Config().Out
	g := graph.TwoClusters(6, 6, 1, 0.5, 3)
	sol, err := resilience.SolveEigen(l.cfg.Ctx, g.Laplacian(), 4, resilience.EigenPolicy{MinD: 4})
	if err != nil {
		return err
	}
	opts := melo.NewOptions()
	opts.D = 3
	opts.RecomputeEvery = 4
	res, err := melo.Order(g, sol.Dec, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 2: MELO trace (two planted clusters of 6, one 0.5-weight bridge, d = 3)")
	fmt.Fprintf(w, "%-6s %-8s %-14s %-10s\n", "step", "vertex", "||Y_S||^2", "H")
	for t := range res.Order {
		fmt.Fprintf(w, "%-6d %-8d %-14.4f %-10.4f\n", t+1, res.Order[t], res.Objective[t], res.H[t])
	}
	fmt.Fprintf(w, "ordering: %v\n", res.Order)
	fmt.Fprintln(w, "note how all six vertices of one planted cluster are inserted before any of the other")
	fmt.Fprintln(w)
	return nil
}
