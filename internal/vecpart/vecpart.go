// Package vecpart implements the paper's central construction: the
// reduction from min-cut graph partitioning to vector partitioning.
//
// Given the Laplacian eigendecomposition Q = U Λ Uᵀ with eigenvalues
// 0 = λ_1 ≤ … ≤ λ_n, each vertex v_i is mapped to a d-dimensional vector.
// Two scalings are provided:
//
//   - MaxSum: y_i[j] = sqrt(H − λ_j) · U[i][j]. With d = n,
//     Σ_h ‖Y_h‖² = n·H − f(P_k), so minimizing the cut f is *exactly*
//     maximizing the sum of squared subset-vector magnitudes.
//   - MinSum: y_i[j] = sqrt(λ_j) · U[i][j]. With d = n,
//     Σ_h ‖Y_h‖² = f(P_k), giving the min-sum dual (Corollary 5), and
//     ‖y_iⁿ‖² = deg(v_i) (Corollary 6).
//
// where Y_h = Σ_{i ∈ C_h} y_i is the subset vector of cluster h. These
// identities — and their exactness at d = n — are the formal basis for the
// paper's thesis that more eigenvectors are strictly more informative.
package vecpart

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eigen"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// Scaling selects how eigenvector coordinates are scaled into vertex
// vectors.
type Scaling int

const (
	// MaxSum scales by sqrt(H − λ_j): min-cut == max-sum vector
	// partitioning. This is the scaling MELO uses.
	MaxSum Scaling = iota
	// MinSum scales by sqrt(λ_j): min-cut == min-sum vector partitioning.
	MinSum
)

// String returns the scaling name.
func (s Scaling) String() string {
	switch s {
	case MaxSum:
		return "max-sum"
	case MinSum:
		return "min-sum"
	default:
		return fmt.Sprintf("Scaling(%d)", int(s))
	}
}

// Vectors holds the vertex vectors of a vector-partitioning instance.
type Vectors struct {
	// Y is n×d: row i is the vector of vertex i.
	Y *linalg.Dense
	// H is the constant used by the MaxSum scaling (0 for MinSum).
	H float64
	// Lambda are the eigenvalues used (length d).
	Lambda []float64
	// Scale records which scaling produced Y.
	Scale Scaling
}

// N returns the number of vertices.
func (v *Vectors) N() int { return v.Y.Rows }

// D returns the dimension of the vectors.
func (v *Vectors) D() int { return v.Y.Cols }

// Row returns vertex i's vector (a view; do not modify).
func (v *Vectors) Row(i int) []float64 { return v.Y.Row(i) }

// FromDecomposition builds vertex vectors from the first d eigenpairs of
// dec under the given scaling. For MaxSum, H must satisfy H ≥ λ_d (so all
// coordinates are real); ChooseH provides the paper's truncation-balanced
// choice.
func FromDecomposition(dec *eigen.Decomposition, d int, s Scaling, H float64) (*Vectors, error) {
	if d < 1 || d > dec.D() {
		return nil, fmt.Errorf("vecpart: d = %d out of range [1,%d]", d, dec.D())
	}
	return fromPairs(dec, 0, d, s, H)
}

// MaxSumInstance builds the paper's max-sum vector instance from a full
// Laplacian decomposition, trivial (constant) pair first: it drops that
// pair, keeps up to d non-trivial pairs, and scales them with ChooseH's
// truncation-balanced H. traceQ is the Laplacian's trace (the graph's
// total weighted degree). λ₁ enters ChooseH as an exact 0, not the
// solver's roundoff-sized Values[0], so H is reproducible across solvers.
func MaxSumInstance(dec *eigen.Decomposition, d int, traceQ float64) (*Vectors, error) {
	d = min(d, dec.D()-1)
	if d < 1 {
		return nil, fmt.Errorf("vecpart: decomposition has %d eigenpairs, need >= 2 for a vector instance", dec.D())
	}
	H := ChooseH(traceQ, append([]float64{0}, dec.Values[1:d+1]...), dec.Vectors.Rows)
	return fromPairs(dec, 1, d, MaxSum, H)
}

// fromPairs scales the d eigenpairs of dec starting at index first.
func fromPairs(dec *eigen.Decomposition, first, d int, s Scaling, H float64) (*Vectors, error) {
	lam := linalg.CopyVec(dec.Values[first : first+d])
	n := dec.Vectors.Rows
	y := linalg.NewDense(n, d)
	for j := 0; j < d; j++ {
		var c float64
		switch s {
		case MaxSum:
			if H < lam[j]-1e-9 {
				return nil, fmt.Errorf("vecpart: H = %v < λ_%d = %v", H, j+1, lam[j])
			}
			c = math.Sqrt(math.Max(0, H-lam[j]))
		case MinSum:
			c = math.Sqrt(math.Max(0, lam[j]))
		default:
			return nil, errors.New("vecpart: unknown scaling")
		}
		for i := 0; i < n; i++ {
			y.Set(i, j, c*dec.Vectors.At(i, first+j))
		}
	}
	return &Vectors{Y: y, H: H, Lambda: lam, Scale: s}, nil
}

// ChooseH returns the H that makes the summed contribution of the unused
// n−d eigenvectors vanish: Σ_{j>d} (H − λ_j) = 0, i.e. H is the mean of
// the unused eigenvalues,
//
//	H = (trace(Q) − Σ_{j≤d} λ_j) / (n − d)
//
// computable without the full spectrum because trace(Q) equals the total
// weighted degree. For d = n any H ≥ λ_n keeps the reduction exact; λ_n
// is returned. The mean of the unused eigenvalues is always ≥ λ_d, so the
// MaxSum scaling stays real.
func ChooseH(traceQ float64, lambda []float64, n int) float64 {
	d := len(lambda)
	if d >= n {
		return lambda[d-1]
	}
	var used float64
	for _, l := range lambda {
		used += l
	}
	return (traceQ - used) / float64(n-d)
}

// SubsetVector returns Y_h = Σ_{i ∈ members} y_i.
func (v *Vectors) SubsetVector(members []int) []float64 {
	sum := make([]float64, v.D())
	for _, i := range members {
		linalg.Axpy(1, v.Row(i), sum)
	}
	return sum
}

// SumSquaredSubsets returns Σ_h ‖Y_h‖² for the given partition — the
// vector-partitioning objective (maximize under MaxSum, minimize under
// MinSum).
func (v *Vectors) SumSquaredSubsets(p *partition.Partition) float64 {
	if p.N() != v.N() {
		panic(fmt.Sprintf("vecpart: partition over %d elements, vectors over %d", p.N(), v.N()))
	}
	sums := make([][]float64, p.K)
	for h := range sums {
		sums[h] = make([]float64, v.D())
	}
	for i, c := range p.Assign {
		linalg.Axpy(1, v.Row(i), sums[c])
	}
	var total float64
	for _, s := range sums {
		total += linalg.NormSq(s)
	}
	return total
}

// MinMaxSquaredSubset returns min_h ‖Y_h‖² (the max-min variant mentioned
// for Scaled-Cost-style objectives) and max_h ‖Y_h‖².
func (v *Vectors) MinMaxSquaredSubset(p *partition.Partition) (min, max float64) {
	sums := make([][]float64, p.K)
	for h := range sums {
		sums[h] = make([]float64, v.D())
	}
	for i, c := range p.Assign {
		linalg.Axpy(1, v.Row(i), sums[c])
	}
	min, max = math.Inf(1), math.Inf(-1)
	for _, s := range sums {
		ns := linalg.NormSq(s)
		if ns < min {
			min = ns
		}
		if ns > max {
			max = ns
		}
	}
	return min, max
}

// PredictedCut converts the vector-partitioning objective value into the
// predicted graph cut f(P_k) under this instance's scaling. The prediction
// is exact when d = n and approximate otherwise (the approximation error
// is what ChooseH balances to zero in expectation).
func (v *Vectors) PredictedCut(p *partition.Partition) float64 {
	obj := v.SumSquaredSubsets(p)
	switch v.Scale {
	case MaxSum:
		return float64(v.N())*v.H - obj
	default: // MinSum
		return obj
	}
}
