// Package spectral estimates spectral radii by power iteration, both for
// explicit matrices (dense and CSR) and for implicit linear operators,
// and the extreme eigenpairs of symmetric operators by Lanczos, which
// package linbp uses to evaluate the exact convergence criteria of
// Lemma 8 block by block. All operators used in the reproduction are
// either symmetric or elementwise non-negative, so the power method
// converges to the spectral radius.
package spectral

import (
	"errors"
	"math"

	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Operator is a square linear operator y = M·x on flat float64 vectors.
type Operator interface {
	// Dim returns the dimension of the operator's domain and range.
	Dim() int
	// Apply computes dst = M·src. dst and src never alias.
	Apply(dst, src []float64)
}

// Options tunes the power iteration. The zero value selects defaults.
type Options struct {
	// MaxIter bounds the number of iterations (default 1000).
	MaxIter int
	// Tol is the relative change in the eigenvalue estimate at which the
	// iteration stops (default 1e-10).
	Tol float64
	// Seed seeds the deterministic start vector (default 1).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 1000
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ErrNoConverge is returned when the power iteration does not settle
// within MaxIter iterations. The best estimate is still returned.
var ErrNoConverge = errors.New("spectral: power iteration did not converge")

// Radius estimates the spectral radius of op by power iteration.
// On ErrNoConverge the returned value is the last estimate.
func Radius(op Operator, opts Options) (float64, error) {
	opts = opts.withDefaults()
	n := op.Dim()
	if n == 0 {
		return 0, nil
	}
	rng := xrand.New(opts.Seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() + 0.1 // bounded away from 0 to avoid deficient starts
	}
	normalize(x)
	y := make([]float64, n)
	prev := math.Inf(1)
	restarts := 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		op.Apply(y, x)
		lambda := dense.Norm2(y)
		if lambda == 0 {
			// x is in the null space. A few collapses from independent
			// random starts indicate a nilpotent operator (e.g. the DAG
			// adjacency A* of Lemma 17), whose spectral radius is 0.
			restarts++
			if restarts >= 3 {
				return 0, nil
			}
			for i := range x {
				x[i] = rng.Float64() + 0.1
			}
			normalize(x)
			prev = math.Inf(1)
			continue
		}
		dense.ScaleInto(x, 1/lambda, y)
		if math.Abs(lambda-prev) <= opts.Tol*math.Max(1, math.Abs(lambda)) {
			return lambda, nil
		}
		prev = lambda
	}
	return prev, ErrNoConverge
}

func normalize(x []float64) {
	n := dense.Norm2(x)
	if n == 0 {
		return
	}
	dense.ScaleInto(x, 1/n, x)
}

// CSROp adapts a square sparse matrix to the Operator interface.
type CSROp struct{ M *sparse.CSR }

// Dim implements Operator.
func (o CSROp) Dim() int { return o.M.Rows() }

// Apply implements Operator.
func (o CSROp) Apply(dst, src []float64) { o.M.MulVecInto(dst, src) }

// DenseOp adapts a square dense matrix to the Operator interface.
type DenseOp struct{ M *dense.Matrix }

// Dim implements Operator.
func (o DenseOp) Dim() int { return o.M.Rows() }

// Apply implements Operator.
func (o DenseOp) Apply(dst, src []float64) {
	copy(dst, o.M.MulVec(src))
}

// RadiusCSR estimates ρ(m) for a square sparse matrix.
func RadiusCSR(m *sparse.CSR, opts Options) (float64, error) {
	return Radius(CSROp{m}, opts)
}

// RadiusDense estimates ρ(m) for a square dense matrix.
func RadiusDense(m *dense.Matrix, opts Options) (float64, error) {
	return Radius(DenseOp{m}, opts)
}
