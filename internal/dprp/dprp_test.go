package dprp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

func randomNetlist(t *testing.T, n, nets int, seed int64) *hypergraph.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hypergraph.NewBuilder()
	b.AddModules(n)
	for e := 0; e < nets; e++ {
		size := 2 + rng.Intn(4)
		if size > n {
			size = n
		}
		mods := rng.Perm(n)[:size]
		if err := b.AddNet("", mods...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func identityOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

func TestCutProfileMatchesDirectNetCut(t *testing.T) {
	h := randomNetlist(t, 12, 20, 1)
	rng := rand.New(rand.NewSource(2))
	order := rng.Perm(12)
	profile := CutProfile(h, order)
	if len(profile) != 11 {
		t.Fatalf("profile length %d", len(profile))
	}
	for s := 1; s < 12; s++ {
		p, err := partition.FromOrderSplit(order, []int{s}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(partition.NetCut(h, p))
		if profile[s-1] != want {
			t.Errorf("split %d: profile %v, direct %v", s, profile[s-1], want)
		}
	}
}

func TestGraphCutProfileMatchesDirectCut(t *testing.T) {
	g := graph.RandomConnected(15, 25, 3)
	rng := rand.New(rand.NewSource(4))
	order := rng.Perm(15)
	profile := GraphCutProfile(g, order)
	for s := 1; s < 15; s++ {
		p, err := partition.FromOrderSplit(order, []int{s}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := partition.CutWeight(g, p)
		if math.Abs(profile[s-1]-want) > 1e-9 {
			t.Errorf("split %d: profile %v, direct %v", s, profile[s-1], want)
		}
	}
}

func TestBestBalancedSplit(t *testing.T) {
	// Two cliques of 4 joined by one net: best balanced split cuts 1 net.
	b := hypergraph.NewBuilder()
	b.AddModules(8)
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}} {
		_ = b.AddNet("", pair[0], pair[1])
	}
	for _, pair := range [][2]int{{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7}} {
		_ = b.AddNet("", pair[0], pair[1])
	}
	_ = b.AddNet("bridge", 3, 4)
	h := b.Build()
	res, err := BestBalancedSplit(h, identityOrder(8), 0.45)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pos != 4 || res.Cut != 1 {
		t.Errorf("pos=%d cut=%v, want 4 and 1", res.Pos, res.Cut)
	}
	sizes := res.Partition.Sizes()
	if sizes[0] != 4 || sizes[1] != 4 {
		t.Errorf("sizes = %v", sizes)
	}
	// Balance bound must be respected even when a lopsided cut is lower.
	res2, err := BestBalancedSplit(h, identityOrder(8), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Pos != 4 {
		t.Errorf("50%% balance must force the middle split, got %d", res2.Pos)
	}
}

func TestBestRatioCutSplit(t *testing.T) {
	h := randomNetlist(t, 10, 15, 5)
	order := identityOrder(10)
	res, err := BestRatioCutSplit(h, order)
	if err != nil {
		t.Fatal(err)
	}
	// Verify optimality by scanning.
	profile := CutProfile(h, order)
	best := math.Inf(1)
	for s := 1; s < 10; s++ {
		rc := profile[s-1] / (float64(s) * float64(10-s))
		if rc < best {
			best = rc
		}
	}
	if math.Abs(res.Cut-best) > 1e-12 {
		t.Errorf("ratio cut %v, want %v", res.Cut, best)
	}
}

func TestBestSplitErrors(t *testing.T) {
	h := randomNetlist(t, 4, 3, 6)
	if _, err := BestBalancedSplit(h, []int{0}, 0.4); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := BestBalancedSplit(h, identityOrder(4), 0.9); err == nil {
		t.Error("infeasible balance accepted")
	}
}

// bruteDPRP enumerates all contiguous k-way splits and returns the minimal
// Scaled Cost.
func bruteDPRP(h *hypergraph.Hypergraph, order []int, k, lo, hi int) float64 {
	n := len(order)
	best := math.Inf(1)
	var rec func(start, t int, splits []int)
	rec = func(start, t int, splits []int) {
		if t == k {
			size := n - start
			if size < lo || size > hi {
				return
			}
			p, err := partition.FromOrderSplit(order, splits, k)
			if err != nil {
				return
			}
			if sc := partition.ScaledCost(h, p); sc < best {
				best = sc
			}
			return
		}
		for size := lo; size <= hi && start+size < n; size++ {
			rec(start+size, t+1, append(splits, start+size))
		}
	}
	rec(0, 1, nil)
	return best
}

func TestDPRPMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		n := 10 + trial
		h := randomNetlist(t, n, 2*n, int64(trial+10))
		rng := rand.New(rand.NewSource(int64(trial)))
		order := rng.Perm(n)
		for _, k := range []int{2, 3, 4} {
			lo, hi := 1, n
			res, err := Partition(h, order, Options{K: k, MinSize: lo, MaxSize: hi})
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			want := bruteDPRP(h, order, k, lo, hi)
			if math.Abs(res.ScaledCost-want) > 1e-9 {
				t.Errorf("trial %d k=%d: DP %v, brute force %v", trial, k, res.ScaledCost, want)
			}
			// The reported Scaled Cost must match the metric on the
			// returned partition.
			direct := partition.ScaledCost(h, res.Partition)
			if math.Abs(res.ScaledCost-direct) > 1e-9 {
				t.Errorf("trial %d k=%d: reported %v, metric %v", trial, k, res.ScaledCost, direct)
			}
		}
	}
}

func TestDPRPRespectsSizeBounds(t *testing.T) {
	h := randomNetlist(t, 20, 40, 99)
	res, err := Partition(h, identityOrder(20), Options{K: 4, MinSize: 4, MaxSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Partition.Sizes() {
		if s < 4 || s > 6 {
			t.Errorf("cluster size %d outside [4,6]", s)
		}
	}
	if len(res.Splits) != 3 {
		t.Errorf("splits = %v", res.Splits)
	}
}

func TestDPRPDefaultsAndErrors(t *testing.T) {
	h := randomNetlist(t, 16, 30, 7)
	res, err := Partition(h, identityOrder(16), Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Default bounds: [n/(2k), ceil(2n/k)] = [2, 8].
	for _, s := range res.Partition.Sizes() {
		if s < 2 || s > 8 {
			t.Errorf("cluster size %d outside default bounds", s)
		}
	}
	if _, err := Partition(h, identityOrder(16), Options{K: 1}); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := Partition(h, identityOrder(16), Options{K: 17}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Partition(h, identityOrder(8), Options{K: 2}); err == nil {
		t.Error("ordering/hypergraph size mismatch accepted")
	}
	if _, err := Partition(h, identityOrder(16), Options{K: 4, MinSize: 5, MaxSize: 5}); err == nil {
		t.Error("infeasible bounds accepted (4 clusters of exactly 5 != 16)")
	}
}

// referencePartition is DP-RP with the original block-cost walk: for
// every block end j it walks the start i downward, scanning the nets
// pinned at i and binary-searching each one's sorted pin list for its next
// pin. PartitionCtx must reproduce it bit for bit.
func referencePartition(h *hypergraph.Hypergraph, order []int, opts Options) (*Result, error) {
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

	pos := invert(order)
	m := h.NumNets()
	minPos := make([]int, m)
	maxPos := make([]int, m)
	// beforeCnt[i]: nets with maxPos < i. afterCnt[j]: nets with
	// minPos >= j. Used for the O(1) first-block (i = 0) costs, where
	// span overlap and pin containment coincide.
	beforeCnt := make([]int, n+1)
	afterCnt := make([]int, n+1)
	for e, net := range h.Nets {
		lo2, hi2 := span(net, pos)
		minPos[e], maxPos[e] = lo2, hi2
		beforeCnt[hi2+1]++
		afterCnt[lo2]++
	}
	for i := 1; i <= n; i++ {
		beforeCnt[i] += beforeCnt[i-1]
	}
	for j := n - 1; j >= 0; j-- {
		afterCnt[j] += afterCnt[j+1]
	}

	// netsAtPos[p] lists the nets with a pin at ordering position p (a
	// net repeating a module is listed once per pin); minStart[p] lists
	// nets whose minimum pin position is p.
	netsAtPos := make([][]int, n)
	minStart := make([][]int, n)
	for e, net := range h.Nets {
		for _, mod := range net {
			p := pos[mod]
			netsAtPos[p] = append(netsAtPos[p], e)
		}
		minStart[minPos[e]] = append(minStart[minPos[e]], e)
	}
	// Per-net sorted pin positions, for next-pin lookups.
	netPins := make([][]int, m)
	for e, net := range h.Nets {
		ps := make([]int, len(net))
		for i2, mod := range net {
			ps[i2] = pos[mod]
		}
		sortInts(ps)
		netPins[e] = ps
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
		if k >= 2 {
			// Walk i from j down to the lowest start any block ending at
			// j may use, maintaining:
			//   pinned    = # nets with >= 1 pin in [i, j]
			//   contained = # nets with all pins in [i, j]
			iLo := j - hi + 1
			if a := areaILo(j); a > iLo {
				iLo = a
			}
			if iLo < 1 {
				iLo = 1
			}
			pinned, contained := 0, 0
			for i := j; i >= iLo; i-- {
				for _, e := range netsAtPos[i] {
					// Net e gains its first pin in the window iff its next
					// pin after position i lies beyond j.
					if nextPinAfter(netPins[e], i) > j {
						pinned++
					}
				}
				for _, e := range minStart[i] {
					if maxPos[e] <= j {
						contained++
					}
				}
				cost[i] = float64(pinned-contained) / float64(j-i+1)
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
				for i := iLo; i <= iHi; i++ {
					prev := dp[t-1][i-1]
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

// nextPinAfter returns the smallest element of sorted ps strictly greater
// than p, or a value larger than any position if none exists.
func nextPinAfter(ps []int, p int) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := (lo + hi) / 2
		if ps[mid] <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ps) {
		return int(^uint(0) >> 1) // MaxInt
	}
	return ps[lo]
}

func sortInts(a []int) {
	// Insertion sort: net sizes are small; avoids pulling in sort for the
	// hot path.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func TestNextPinAfter(t *testing.T) {
	ps := []int{1, 4, 9}
	if got := nextPinAfter(ps, 0); got != 1 {
		t.Errorf("nextPinAfter(0) = %d", got)
	}
	if got := nextPinAfter(ps, 1); got != 4 {
		t.Errorf("nextPinAfter(1) = %d", got)
	}
	if got := nextPinAfter(ps, 9); got < 1<<30 {
		t.Errorf("nextPinAfter(9) = %d, want MaxInt", got)
	}
}

// TestDPRPMatchesReference pins the incremental block costs to the
// original walk on a seeded corpus: bit-identical Splits and ScaledCost
// on every instance, covering repeated pins, single-pin nets,
// heterogeneous areas under the default area window, explicit size
// windows and every K in 2..8.
func TestDPRPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var solved, repeated, single, areas, explicit int
	ks := make(map[int]int)
	for c := 0; c < 300; c++ {
		n := 8 + rng.Intn(58)
		data := make([]byte, 3+4*n)
		rng.Read(data)
		data[0] = byte(n - 2)
		h, order, opts, _ := dprpCase(data)
		if !checkMatchesReference(t, h, order, opts) {
			continue
		}
		solved++
		ks[opts.K]++
		if h.HasAreas() && opts.MinSize == 0 {
			areas++
		}
		if opts.MinSize > 0 {
			explicit++
		}
		for _, net := range h.Nets {
			if len(net) == 1 {
				single++
			}
			if hasRepeat(net) {
				repeated++
			}
		}
	}
	t.Logf("%d solved: %d repeated-pin nets, %d single-pin nets, %d area-window and %d explicit-size cases, by K %v",
		solved, repeated, single, areas, explicit, ks)
	for k := 2; k <= 8; k++ {
		if ks[k] == 0 {
			t.Errorf("no solved case with K=%d", k)
		}
	}
	if solved < 200 || repeated == 0 || single == 0 || areas == 0 || explicit == 0 {
		t.Errorf("corpus too thin: %d solved, %d repeated-pin nets, %d single-pin nets, %d area-window and %d explicit-size cases",
			solved, repeated, single, areas, explicit)
	}
}

func hasRepeat(net []int) bool {
	seen := make(map[int]bool, len(net))
	for _, m := range net {
		if seen[m] {
			return true
		}
		seen[m] = true
	}
	return false
}
