// Package graph provides weighted undirected graphs, the clique-model
// transformations that turn netlist hypergraphs into graphs, and Laplacian
// matrix assembly.
//
// The paper's spectral machinery operates on the Laplacian Q = D − A of a
// weighted graph G obtained from the circuit hypergraph by expanding each
// net into a clique with one of three edge-cost models (standard,
// partitioning-specific, Frankle).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/linalg"
)

// Edge is a weighted undirected edge between distinct vertices U < V.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an immutable weighted undirected graph stored as adjacency
// lists. Parallel edges are merged (weights summed) during construction;
// self-loops are rejected.
type Graph struct {
	n         int
	adj       [][]Half // adj[u] sorted by neighbor index
	deg       []float64
	edgeCount int
}

// Half is one direction of an undirected edge.
type Half struct {
	To int
	W  float64
}

// New builds a graph on n vertices from the given edges. Edge weights of
// parallel edges are summed. Edges must connect distinct vertices in
// range; weights must be positive.
func New(n int, edges []Edge) (*Graph, error) {
	g := &Graph{n: n, adj: make([][]Half, n), deg: make([]float64, n)}
	type key struct{ u, v int }
	merged := make(map[key]float64, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", u)
		}
		if u < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has non-positive weight %v", e.U, e.V, e.W)
		}
		merged[key{u, v}] += e.W
	}
	// Every adjacency list is a window of one backing slice of 2|E|
	// halves, sized from the vertex degrees. The windows are capped at
	// their length, so no list can grow into its neighbor's.
	count := make([]int, n)
	for k := range merged {
		count[k.u]++
		count[k.v]++
	}
	halves := make([]Half, 2*len(merged))
	off := 0
	for u, c := range count {
		g.adj[u] = halves[off : off : off+c]
		off += c
	}
	for k, w := range merged {
		g.adj[k.u] = append(g.adj[k.u], Half{To: k.v, W: w})
		g.adj[k.v] = append(g.adj[k.v], Half{To: k.u, W: w})
	}
	// Degrees are summed over the sorted adjacency, not in map order:
	// float addition is order-sensitive, and a map-ordered sum would make
	// repeated builds of the same graph differ in the last ulp — enough
	// to flip near-tied eigenvector signs downstream.
	for u := range g.adj {
		slices.SortFunc(g.adj[u], func(a, b Half) int { return cmp.Compare(a.To, b.To) })
		var d float64
		for _, h := range g.adj[u] {
			d += h.W
		}
		g.deg[u] = d
	}
	g.edgeCount = len(merged)
	return g, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of distinct undirected edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// Adj returns the adjacency list of u (sorted by neighbor). The returned
// slice must not be modified.
func (g *Graph) Adj(u int) []Half { return g.adj[u] }

// Degree returns the weighted degree of u.
func (g *Graph) Degree(u int) float64 { return g.deg[u] }

// TotalDegree returns the sum of all weighted degrees (= 2×total edge
// weight = trace of the Laplacian).
func (g *Graph) TotalDegree() float64 { return linalg.Sum(g.deg) }

// Edges returns all edges (U < V), sorted lexicographically.
func (g *Graph) Edges() []Edge {
	var es []Edge
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.To {
				es = append(es, Edge{U: u, V: h.To, W: h.W})
			}
		}
	}
	return es
}

// Weight returns the weight of edge (u,v), or 0 if absent.
func (g *Graph) Weight(u, v int) float64 {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i].To >= v })
	if i < len(a) && a[i].To == v {
		return a[i].W
	}
	return 0
}

// IsConnected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.componentOf(0)) == g.n
}

// Components returns the connected components, each sorted ascending,
// ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for i := 0; i < g.n; i++ {
		if seen[i] {
			continue
		}
		c := g.componentOf(i)
		for _, v := range c {
			seen[v] = true
		}
		comps = append(comps, c)
	}
	return comps
}

func (g *Graph) componentOf(start int) []int {
	visited := make([]bool, g.n)
	visited[start] = true
	queue := []int{start}
	comp := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[u] {
			if !visited[h.To] {
				visited[h.To] = true
				queue = append(queue, h.To)
				comp = append(comp, h.To)
			}
		}
	}
	sort.Ints(comp)
	return comp
}

// Laplacian assembles Q = D − A as a sparse CSR matrix.
func (g *Graph) Laplacian() *linalg.CSR {
	ts := make([]linalg.Triplet, 0, g.n+2*g.edgeCount)
	for u := 0; u < g.n; u++ {
		ts = append(ts, linalg.Triplet{Row: u, Col: u, Val: g.deg[u]})
		for _, h := range g.adj[u] {
			ts = append(ts, linalg.Triplet{Row: u, Col: h.To, Val: -h.W})
		}
	}
	return linalg.NewCSR(g.n, g.n, ts)
}

// Adjacency assembles A as a sparse CSR matrix.
func (g *Graph) Adjacency() *linalg.CSR {
	ts := make([]linalg.Triplet, 0, 2*g.edgeCount)
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			ts = append(ts, linalg.Triplet{Row: u, Col: h.To, Val: h.W})
		}
	}
	return linalg.NewCSR(g.n, g.n, ts)
}

// LaplacianDense assembles Q as a dense matrix (for small graphs/tests).
func (g *Graph) LaplacianDense() *linalg.Dense {
	m := linalg.NewDense(g.n, g.n)
	for u := 0; u < g.n; u++ {
		m.Set(u, u, g.deg[u])
		for _, h := range g.adj[u] {
			m.Set(u, h.To, -h.W)
		}
	}
	return m
}

// Induce extracts the subgraph on the given vertices, keeping edges with
// both endpoints inside. The second return value maps new indices back to
// the original ones.
func (g *Graph) Induce(vertices []int) (*Graph, []int) {
	old2new := make(map[int]int, len(vertices))
	back := make([]int, len(vertices))
	for newIdx, oldIdx := range vertices {
		old2new[oldIdx] = newIdx
		back[newIdx] = oldIdx
	}
	var edges []Edge
	for _, oldU := range vertices {
		u := old2new[oldU]
		for _, h := range g.adj[oldU] {
			if v, ok := old2new[h.To]; ok && u < v {
				edges = append(edges, Edge{U: u, V: v, W: h.W})
			}
		}
	}
	sub, err := New(len(vertices), edges)
	if err != nil {
		panic(err) // cannot happen: edges derive from a valid graph
	}
	return sub, back
}
