package dprp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Options configures the DP-RP dynamic program.
type Options struct {
	// K is the number of clusters. Required, >= 2.
	K int
	// MinSize and MaxSize bound every cluster's size. Zero values select
	// the defaults n/(2k) and ceil(2n/k), the "restricted partitioning"
	// bounds of [1]. Ignored when the netlist carries explicit module
	// areas (unless set explicitly): the paper's weighted-vertex
	// constraint L_h ≤ w(S_h) ≤ W_h bounds AREA sums, not module counts.
	MinSize, MaxSize int
	// MinArea and MaxArea bound every cluster's total module area. Zero
	// values select A/(2k) and 2A/k (the area analogues of the
	// restricted-partitioning bounds) when the netlist has explicit
	// areas and no explicit size bounds were given.
	MinArea, MaxArea float64
}

// AreaBounds returns the default restricted-partitioning area window
// [A/(2k), 2A/k] the DP uses for a netlist of total area A.
func AreaBounds(totalArea float64, k int) (lo, hi float64) {
	return totalArea / (2 * float64(k)), 2 * totalArea / float64(k)
}

// Result is a DP-RP solution.
type Result struct {
	// Partition assigns original indices to clusters 0..K−1 in ordering
	// order (cluster 0 is the first block).
	Partition *partition.Partition
	// Splits are the K−1 block boundaries in the ordering.
	Splits []int
	// ScaledCost is the Scaled Cost of the solution.
	ScaledCost float64
}

// Partition runs DP-RP: it finds the k-way partitioning of the ordering
// into contiguous blocks, with block sizes in [MinSize, MaxSize],
// minimizing Scaled Cost — Σ_blocks E_b/|b| scaled by 1/(n(k−1)), where
// E_b counts nets with a pin inside block b and a pin outside it.
//
// The dynamic program is dp[t][j] = min over block starts i of
// dp[t−1][i−1] + E(i,j)/(j−i+1). Block costs come from one counter per
// ordering position, updated by O(1) events per pin as the block end j
// advances, so E(i,j) for every start i of a block ending at j is one
// running sum. The total cost is O(pins·log s + n·(MaxSize + k·W)), where
// s is the largest net size and W = MaxSize−MinSize+1.
func Partition(h *hypergraph.Hypergraph, order []int, opts Options) (*Result, error) {
	return PartitionCtx(context.Background(), h, order, opts)
}

// PartitionCtx is Partition with cooperative cancellation: ctx is
// checked at every block-end column of the dynamic program, so a
// cancelled context aborts within one DP column, returning ctx.Err().
func PartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, order []int, opts Options) (*Result, error) {
	n := len(order)
	if n != h.NumModules() {
		return nil, fmt.Errorf("dprp: ordering covers %d modules, hypergraph has %d", n, h.NumModules())
	}
	k := opts.K
	if k < 2 {
		return nil, fmt.Errorf("dprp: k = %d, want >= 2", k)
	}
	if k > n {
		return nil, fmt.Errorf("dprp: k = %d exceeds n = %d", k, n)
	}
	// Balance windows: explicit size bounds always win; otherwise a
	// netlist with explicit module areas is bounded in AREA (the paper's
	// weighted-vertex constraint L_h ≤ w(S_h) ≤ W_h), and only unit-area
	// netlists fall back to the module-count bounds of [1]. Counting
	// modules on a heterogeneous-area netlist was the area-balance bug
	// the oracle harness surfaced: a "balanced" block could hold nearly
	// all the area.
	lo, hi := opts.MinSize, opts.MaxSize
	loA, hiA := opts.MinArea, opts.MaxArea
	sizeExplicit := lo > 0 || hi > 0
	areaMode := loA > 0 || hiA > 0 || (h.HasAreas() && !sizeExplicit)
	if lo <= 0 {
		lo = 1
		if !areaMode {
			lo = n / (2 * k)
			if lo < 1 {
				lo = 1
			}
		}
	}
	if hi <= 0 {
		hi = n
		if !areaMode {
			hi = (2*n + k - 1) / k
		}
	}
	if hi > n {
		hi = n
	}
	if lo*k > n || hi*k < n {
		return nil, fmt.Errorf("dprp: size bounds [%d,%d] infeasible for n=%d k=%d", lo, hi, n, k)
	}
	totalArea := h.TotalArea()
	const areaEps = 1e-9
	areaTol := areaEps * (1 + totalArea)
	if areaMode {
		defLoA, defHiA := AreaBounds(totalArea, k)
		if loA <= 0 {
			loA = defLoA
		}
		if hiA <= 0 {
			hiA = defHiA
		}
		if loA*float64(k) > totalArea+areaTol || hiA*float64(k) < totalArea-areaTol {
			return nil, fmt.Errorf("dprp: area bounds [%g,%g] infeasible for total area %g, k=%d", loA, hiA, totalArea, k)
		}
	}
	// prefixArea[t] is the area of order[0:t]; blocks are bounded via
	// pre-sums so the window arithmetic below is O(1) per (i, j).
	prefixArea := make([]float64, n+1)
	for t := 1; t <= n; t++ {
		prefixArea[t] = prefixArea[t-1] + h.Area(order[t-1])
	}
	blockAreaOK := func(i, j int) bool {
		if !areaMode {
			return true
		}
		a := prefixArea[j+1] - prefixArea[i]
		return a >= loA-areaTol && a <= hiA+areaTol
	}
	// areaILo returns the smallest block start i for which [i, j] does
	// not exceed MaxArea (areas are positive, so block area is monotone
	// decreasing in i).
	areaILo := func(j int) int {
		if !areaMode {
			return 0
		}
		want := prefixArea[j+1] - hiA - areaTol
		i := sort.Search(n+1, func(t int) bool { return prefixArea[t] >= want })
		return i
	}
	// areaIHi returns the largest block start i for which [i, j] still
	// reaches MinArea, or -1 if none does.
	areaIHi := func(j int) int {
		if !areaMode {
			return j
		}
		want := prefixArea[j+1] - loA + areaTol
		i := sort.Search(n+1, func(t int) bool { return prefixArea[t] > want })
		return i - 1
	}

	ctx, sp := trace.Start(ctx, "split.dp", trace.Int("n", n), trace.Int("k", k))
	var cells int64
	defer func() {
		trace.Add(ctx, "dprp.cells", cells)
		sp.Annotate(trace.Int64("cells", cells))
		sp.End()
	}()

	pos := invert(order)
	m := h.NumNets()
	pins := h.NumPins()
	if pins+m > math.MaxInt32 {
		return nil, fmt.Errorf("dprp: %d pins and %d nets overflow the int32 block-cost counters", pins, m)
	}
	// beforeCnt[i]: nets with maxPos < i. afterCnt[j]: nets with
	// minPos >= j. Used for the O(1) first-block (i = 0) costs, where
	// span overlap and pin containment coincide.
	beforeCnt := make([]int, n+1)
	afterCnt := make([]int, n+1)
	// Block costs for starts i >= 1 come from one counter per ordering
	// position, kept so that for the current block end j
	//
	//	E(i,j) = Σ_{p=i..j} b[p]
	//	b[p]   = (pins at p whose net's next pin lies beyond j)
	//	       − (nets whose first pin is at p and last pin is ≤ j).
	//
	// b starts as the pin count at each position (entries beyond j are
	// never read). When j reaches r, the positions in
	// dec[decStart[r]:decStart[r+1]] each lose one: every pin whose net's
	// next pin is r, and the first pin of every net whose last pin is r.
	sorted := make([]int32, pins) // each net's pin positions, sorted
	b := make([]int32, n)
	decStart := make([]int32, n+1)
	off := 0
	for _, net := range h.Nets {
		ps := sorted[off : off+len(net)]
		off += len(net)
		for t, mod := range net {
			ps[t] = int32(pos[mod])
			b[pos[mod]]++
		}
		slices.Sort(ps)
		beforeCnt[ps[len(ps)-1]+1]++
		afterCnt[ps[0]]++
		decrements(ps, func(r, _ int32) { decStart[r]++ })
	}
	for i := 1; i <= n; i++ {
		beforeCnt[i] += beforeCnt[i-1]
	}
	for j := n - 1; j >= 0; j-- {
		afterCnt[j] += afterCnt[j+1]
	}
	// Counting sort of the decrements by r: after the running sum,
	// decStart[r] is the end of r's run; filling each run back to front
	// leaves decStart[r] at its start.
	for r := 1; r < n; r++ {
		decStart[r] += decStart[r-1]
	}
	decStart[n] = decStart[n-1]
	dec := make([]int32, decStart[n])
	off = 0
	for _, net := range h.Nets {
		ps := sorted[off : off+len(net)]
		off += len(net)
		decrements(ps, func(r, q int32) {
			decStart[r]--
			dec[decStart[r]] = q
		})
	}

	const infCost = math.MaxFloat64 / 4
	dp := make([][]float64, k+1)
	parent := make([][]int, k+1)
	for t := 0; t <= k; t++ {
		dp[t] = make([]float64, n)
		parent[t] = make([]int, n)
		for j := range dp[t] {
			dp[t][j] = infCost
			parent[t][j] = -1
		}
	}

	cost := make([]float64, n) // cost[i] = E(i,j)/(j-i+1) for current j

	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// First block starts at 0: E(0,j) = pinned(0,j) − contained(0,j),
		// where pinned(0,j) = nets with minPos <= j and contained =
		// nets with maxPos <= j.
		size := j + 1
		if size >= lo && size <= hi && blockAreaOK(0, j) {
			pinned := m - afterCnt[j+1]
			contained := beforeCnt[j+1]
			dp[1][j] = float64(pinned-contained) / float64(size)
			parent[1][j] = 0
		}
		for _, q := range dec[decStart[j]:decStart[j+1]] {
			b[q]--
		}
		if k >= 2 {
			// Walk i from j down to the lowest start any block ending at
			// j may use, summing E(i,j) as it goes.
			iLo := j - hi + 1
			if a := areaILo(j); a > iLo {
				iLo = a
			}
			if iLo < 1 {
				iLo = 1
			}
			var e int32
			for i := j; i >= iLo; i-- {
				e += b[i]
				cost[i] = float64(e) / float64(j-i+1)
			}
			iHi := j - lo + 1
			if a := areaIHi(j); a < iHi {
				iHi = a
			}
			if iHi > j {
				iHi = j
			}
			for t := 2; t <= k; t++ {
				best := infCost
				bestI := -1
				if iHi >= iLo {
					cells += int64(iHi - iLo + 1)
				}
				prevRow := dp[t-1]
				for i := iLo; i <= iHi; i++ {
					prev := prevRow[i-1]
					if prev >= infCost {
						continue
					}
					if c := prev + cost[i]; c < best {
						best = c
						bestI = i
					}
				}
				dp[t][j] = best
				parent[t][j] = bestI
			}
		}
	}

	if dp[k][n-1] >= infCost {
		return nil, fmt.Errorf("dprp: no feasible %d-way restricted partitioning with bounds [%d,%d]", k, lo, hi)
	}

	// Reconstruct block boundaries right-to-left.
	splits := make([]int, 0, k-1)
	j := n - 1
	for t := k; t >= 2; t-- {
		i := parent[t][j]
		splits = append(splits, i)
		j = i - 1
	}
	for l, r := 0, len(splits)-1; l < r; l, r = l+1, r-1 {
		splits[l], splits[r] = splits[r], splits[l]
	}
	p, err := partition.FromOrderSplit(order, splits, k)
	if err != nil {
		return nil, err
	}
	sc := dp[k][n-1] / (float64(n) * float64(k-1))
	return &Result{Partition: p, Splits: splits, ScaledCost: sc}, nil
}

// decrements calls visit(r, q) once for every decrement of counter b[q]
// that DP-RP applies when the block end reaches r, for one net with
// sorted pin positions ps: each pin expires at its net's next pin
// position (a repeated position expires once per pin), and the net
// closes at its last pin, at its first pin position.
func decrements(ps []int32, visit func(r, q int32)) {
	visit(ps[len(ps)-1], ps[0])
	next := int32(-1)
	for t := len(ps) - 1; t >= 0; t-- {
		if t+1 < len(ps) && ps[t+1] > ps[t] {
			next = ps[t+1]
		}
		if next >= 0 {
			visit(next, ps[t])
		}
	}
}
