package eigen

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// shiftedOp applies L + I, a strictly positive-definite operator.
type shiftedOp struct{ lap *linalg.CSR }

func (s *shiftedOp) Dim() int { return s.lap.Dim() }

func (s *shiftedOp) MatVec(x, y []float64) {
	s.lap.MatVec(x, y)
	for i := range y {
		y[i] += x[i]
	}
}

// TestCGExactStartingGuess: when x0 already solves the system the first
// search direction is zero, and CG used to misreport the (perfectly SPD)
// operator as "not positive definite" instead of returning x0. This is
// the failure the oracle harness hit in analytical placement on
// disconnected netlists, where a reanchoring round's previous solution
// solves the new system exactly.
func TestCGExactStartingGuess(t *testing.T) {
	g := graph.Path(12)
	op := &shiftedOp{lap: g.Laplacian()}
	n := op.Dim()
	rng := rand.New(rand.NewSource(7))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	op.MatVec(want, b)

	x, iters, err := CGCtx(context.Background(), op, b, want, nil, nil)
	if err != nil {
		t.Fatalf("CG with exact starting guess: %v", err)
	}
	if iters != 0 {
		t.Errorf("iterations = %d, want 0 (already converged)", iters)
	}
	for i := range x {
		if d := x[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// TestCGColdStartStillSolves guards the normal path around the new
// early return: a zero starting guess must still converge.
func TestCGColdStartStillSolves(t *testing.T) {
	g := graph.Path(12)
	op := &shiftedOp{lap: g.Laplacian()}
	n := op.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) - 1
	}
	x, _, err := CGCtx(context.Background(), op, b, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ax := make([]float64, n)
	op.MatVec(x, ax)
	for i := range ax {
		if d := ax[i] - b[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("residual[%d] = %g", i, d)
		}
	}
}
