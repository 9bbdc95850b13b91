package resilience

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// pathLaplacian builds the Laplacian of an unweighted path on n
// vertices — a simple operator with a well-separated small spectrum.
func pathLaplacian(n int) *linalg.CSR {
	var ts []linalg.Triplet
	for i := 0; i < n; i++ {
		deg := 2.0
		if i == 0 || i == n-1 {
			deg = 1.0
		}
		ts = append(ts, linalg.Triplet{Row: i, Col: i, Val: deg})
		if i+1 < n {
			ts = append(ts, linalg.Triplet{Row: i, Col: i + 1, Val: -1})
			ts = append(ts, linalg.Triplet{Row: i + 1, Col: i, Val: -1})
		}
	}
	return linalg.NewCSR(n, n, ts)
}

// sparsePolicy forces the Lanczos rungs on small test operators: the
// plan's attempt 1 fails the dense-direct solve, so the ladder's
// Lanczos attempts are plan attempts 2–4 and its dense fallback is
// attempt 5. Callers list the faults for those attempts in plan.
func sparsePolicy(plan *FaultPlan) EigenPolicy {
	plan.FailAttempts = append([]int{1}, plan.FailAttempts...)
	return EigenPolicy{Faults: plan}
}

// refValues returns the d smallest exact eigenvalues via the dense
// solver.
func refValues(t *testing.T, a *linalg.CSR, d int) []float64 {
	t.Helper()
	dec, err := eigen.SymEig(a.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	return dec.Values[:d]
}

func checkValues(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolveEigenClean(t *testing.T) {
	a := pathLaplacian(60)
	res, err := SolveEigen(context.Background(), a, 5, sparsePolicy(&FaultPlan{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 5 || res.Degraded || res.DenseFallback || res.Attempts != 2 {
		t.Fatalf("clean solve took unexpected path: %+v", res)
	}
	checkValues(t, res.Dec.Values, refValues(t, a, 5))
}

func TestSolveEigenDenseDirect(t *testing.T) {
	a := pathLaplacian(40)
	res, err := SolveEigen(context.Background(), a, 5, EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Delivered != 5 {
		t.Fatalf("dense direct path: %+v", res)
	}
	checkValues(t, res.Dec.Values, refValues(t, a, 5))
}

// Rung 1: a hard failure on the first attempt is absorbed by a
// seed-restart.
func TestSolveEigenSeedRestart(t *testing.T) {
	a := pathLaplacian(60)
	res, err := SolveEigen(context.Background(), a, 5, sparsePolicy(&FaultPlan{FailAttempts: []int{2}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 || res.Degraded || res.DenseFallback {
		t.Fatalf("seed-restart rung: %+v", res)
	}
	checkValues(t, res.Dec.Values, refValues(t, a, 5))
}

// Rung 2: a convergence stall triggers a restart with an escalated
// Krylov cap.
func TestSolveEigenStallEscalation(t *testing.T) {
	a := pathLaplacian(60)
	res, err := SolveEigen(context.Background(), a, 5, sparsePolicy(&FaultPlan{StallAttempts: []int{2}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 || res.Degraded || res.DenseFallback {
		t.Fatalf("stall-escalation rung: %+v", res)
	}
	checkValues(t, res.Dec.Values, refValues(t, a, 5))
}

// Rung 3: exhausting every sparse attempt falls back to the dense
// solver.
func TestSolveEigenDenseFallback(t *testing.T) {
	a := pathLaplacian(60)
	res, err := SolveEigen(context.Background(), a, 5, sparsePolicy(&FaultPlan{StallAttempts: []int{2, 3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.DenseFallback || res.Degraded || res.Attempts != 5 {
		t.Fatalf("dense-fallback rung: %+v", res)
	}
	checkValues(t, res.Dec.Values, refValues(t, a, 5))
}

// Rung 4: with the dense fallback failing too, the converged prefix is
// delivered as a degraded (d' < d) decomposition.
func TestSolveEigenDegradation(t *testing.T) {
	a := pathLaplacian(60)
	plan := &FaultPlan{FailAttempts: []int{5}, StallAttempts: []int{2, 3, 4}, StallConverged: 3}
	res, err := SolveEigen(context.Background(), a, 5, sparsePolicy(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Delivered != 3 || res.Requested != 5 {
		t.Fatalf("degradation rung: %+v", res)
	}
	checkValues(t, res.Dec.Values, refValues(t, a, 3))
}

// NaN corruption mid-iteration is detected as a breakdown and absorbed
// by a restart.
func TestSolveEigenNaNRecovery(t *testing.T) {
	a := pathLaplacian(60)
	res, err := SolveEigen(context.Background(), a, 5, sparsePolicy(&FaultPlan{NaNAttempts: []int{2}, NaNStep: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 || res.Degraded {
		t.Fatalf("NaN-recovery: %+v", res)
	}
	checkValues(t, res.Dec.Values, refValues(t, a, 5))
}

// The NaN fault must surface as ErrBreakdown from the solver itself.
func TestLanczosBreakdownError(t *testing.T) {
	a := pathLaplacian(60)
	plan := &FaultPlan{NaNAttempts: []int{1}, NaNStep: 3}
	_, err := eigen.LanczosCtx(context.Background(), a, 5, &eigen.LanczosOptions{Fault: plan})
	if !errors.Is(err, eigen.ErrBreakdown) {
		t.Fatalf("got %v, want ErrBreakdown", err)
	}
}

func TestSolveEigenExhausted(t *testing.T) {
	a := pathLaplacian(60)
	_, err := SolveEigen(context.Background(), a, 5, sparsePolicy(&FaultPlan{FailAttempts: []int{2, 3, 4, 5}}))
	if err == nil {
		t.Fatal("want error after exhausting every rung")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("exhaustion error %v does not wrap the last cause", err)
	}
}

// warmStartFixture returns a sparse-regime operator (n = 300 > 256, a
// random connected graph's Laplacian, which Lanczos converges on fast),
// its cold solve, and a start vector blended from a perturbed copy's
// smallest pairs — a warm start like the one an ECO delta hands in.
func warmStartFixture(t *testing.T, d int) (linalg.Operator, *PartialDecomposition, []float64) {
	t.Helper()
	a := graph.RandomConnected(300, 900, 300).Laplacian()
	cold, err := SolveEigen(context.Background(), a, d, EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	near, err := SolveEigen(context.Background(), graph.RandomConnected(300, 901, 300).Laplacian(), d, EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	start := make([]float64, a.Dim())
	for j := 0; j < d; j++ {
		linalg.Axpy(1/float64(j+1), near.Dec.Vector(j), start)
	}
	return a, cold, start
}

func sameDecomposition(t *testing.T, label string, got, want *eigen.Decomposition) {
	t.Helper()
	if !equalBits(got.Values, want.Values) || !equalBits(got.Vectors.Data, want.Vectors.Data) {
		t.Fatalf("%s: decomposition differs bit for bit", label)
	}
}

// Attempt 0: in the sparse regime a start vector is a seeded Lanczos
// attempt ahead of the cold rungs, and it converges to the cold pairs.
func TestSolveEigenFromSeeded(t *testing.T) {
	a, cold, start := warmStartFixture(t, 6)
	res, err := SolveEigenFrom(context.Background(), a, 6, start, EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeded || res.Attempts != 1 || res.Delivered != 6 {
		t.Fatalf("seeded solve took unexpected path: %+v", res)
	}
	for j, v := range res.Dec.Values {
		if math.Abs(v-cold.Dec.Values[j]) > 1e-6 {
			t.Fatalf("value %d = %v, cold %v", j, v, cold.Dec.Values[j])
		}
	}
}

// The dense regime ignores the start: the answer is SolveEigen's.
func TestSolveEigenFromDenseIgnoresStart(t *testing.T) {
	a := pathLaplacian(60)
	start := make([]float64, 60)
	for i := range start {
		start[i] = float64(i)
	}
	want, err := SolveEigen(context.Background(), a, 5, EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveEigenFrom(context.Background(), a, 5, start, EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seeded || got.Attempts != 1 {
		t.Fatalf("dense solve used the start: %+v", got)
	}
	sameDecomposition(t, "dense regime", got.Dec, want.Dec)
}

// A failed attempt 0 leaves no trace: attempt 1 runs as in a cold
// solve, so the pairs are SolveEigen's bit for bit; and a stalled
// attempt 0's converged prefix is not kept for the degradation rung.
func TestSolveEigenFromFailedStartIsCold(t *testing.T) {
	a, cold, start := warmStartFixture(t, 6)
	res, err := SolveEigenFrom(context.Background(), a, 6, start, EigenPolicy{Faults: &FaultPlan{FailAttempts: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeded || res.Attempts != 2 {
		t.Fatalf("failed start: %+v", res)
	}
	sameDecomposition(t, "after a failed start", res.Dec, cold.Dec)

	plan := &FaultPlan{StallAttempts: []int{1}, StallConverged: 3, FailAttempts: []int{2, 3, 4, 5}}
	if res, err := SolveEigenFrom(context.Background(), a, 6, start, EigenPolicy{Faults: plan}); err == nil {
		t.Fatalf("degraded to the stalled start's prefix: %+v", res)
	}
}

// The seeded attempt is worker-invariant like every rung.
func TestSolveEigenFromWorkerInvariant(t *testing.T) {
	a, _, start := warmStartFixture(t, 6)
	serial, err := SolveEigenFrom(context.Background(), a, 6, start, EigenPolicy{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveEigenFrom(context.Background(), a, 6, start, EigenPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Seeded || !par.Seeded {
		t.Fatalf("seeded attempt did not converge: serial %v, default %v", serial.Notes, par.Notes)
	}
	sameDecomposition(t, "Workers 1 vs 0", par.Dec, serial.Dec)
}

// cancellingOp cancels its context after a fixed number of MatVec
// applications, then counts how many more are issued — proving the
// solver stops at the next iteration boundary.
type cancellingOp struct {
	inner      linalg.Operator
	cancel     context.CancelFunc
	cancelAt   int
	calls      int
	afterCount int
}

func (c *cancellingOp) Dim() int { return c.inner.Dim() }

func (c *cancellingOp) MatVec(x, y []float64) {
	c.calls++
	if c.calls == c.cancelAt {
		c.cancel()
	}
	if c.calls > c.cancelAt {
		c.afterCount++
	}
	c.inner.MatVec(x, y)
}

func TestSolveEigenCancellationMidSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op := &cancellingOp{inner: pathLaplacian(120), cancel: cancel, cancelAt: 5}
	_, err := SolveEigen(ctx, op, 5, sparsePolicy(&FaultPlan{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if op.afterCount > 0 {
		t.Fatalf("solver issued %d MatVecs after cancellation; want 0 (abort within one iteration)", op.afterCount)
	}
}

func TestSolveEigenPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveEigen(ctx, pathLaplacian(60), 5, sparsePolicy(&FaultPlan{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSolveEigenBadD(t *testing.T) {
	a := pathLaplacian(10)
	if _, err := SolveEigen(context.Background(), a, 0, EigenPolicy{}); err == nil {
		t.Fatal("d = 0 accepted")
	}
	if _, err := SolveEigen(context.Background(), a, 11, EigenPolicy{}); err == nil {
		t.Fatal("d > n accepted")
	}
}
