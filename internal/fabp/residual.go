package fabp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/kernel"
	"repro/internal/sparse"
)

// ResidualEngine is the residual-scheduled counterpart of Engine: the
// k = 1 scalar collapse of Appendix E served by the push-based
// relaxation plane instead of synchronous Jacobi rounds. Like Engine
// it works on flat scalar vectors in the layout order; the caller
// (core's prepared-solver path) owns the collapse/expand and any node
// relabeling. Steady-state solves perform zero allocations.
//
// A ResidualEngine is not safe for concurrent use. It holds no
// goroutines; there is nothing to close.
type ResidualEngine struct {
	eng      *kernel.ResidualEngine
	n        int
	maxRelax int
}

// NewResidualEngineCSR prepares a residual-scheduled binary solver
// over an explicit adjacency layout, mirroring NewEngineCSR. opts.Tol
// is the relaxation tolerance and must be positive (the residual
// schedule has no fixed-round mode); opts.MaxIter bounds the work at
// MaxIter·n row relaxations.
func NewResidualEngineCSR(a *sparse.CSR, d []float64, hhat float64, opts Options) (*ResidualEngine, error) {
	opts = opts.withDefaults()
	if opts.Tol <= 0 {
		return nil, fmt.Errorf("fabp: residual schedule needs a positive tolerance, got %v: %w", opts.Tol, errs.ErrInvalidInput)
	}
	if math.Abs(hhat) >= 0.5 {
		return nil, fmt.Errorf("fabp: |ĥ| = %v must be < 1/2: %w", hhat, errs.ErrInvalidCoupling)
	}
	c1, c2 := Coefficients(hhat)
	eng, err := kernel.NewResidual(kernel.Config{
		A:          a,
		D:          d,
		SymmetricA: true,
		H:          dense.NewFromRows([][]float64{{c1}}),
		EchoH:      dense.NewFromRows([][]float64{{c2}}),
	}, opts.Tol)
	if err != nil {
		return nil, fmt.Errorf("fabp: %w", err)
	}
	return &ResidualEngine{eng: eng, n: a.Rows(), maxRelax: opts.MaxIter * a.Rows()}, nil
}

// SolveSeeded runs the residual-scheduled scalar solve and writes the
// final beliefs into dst (length n, overwritten, layout order). A nil
// start is the cold solve; a non-nil start seeds the warm solve, with
// touched (layout-order rows, deduplicated) restricting the residual
// recomputation to the rows a delta perturbed — nil touched recomputes
// every row. Return values mirror kernel.ResidualEngine.Run, with dst
// holding the current iterate at every exit.
//
//lsbp:hotpath
func (s *ResidualEngine) SolveSeeded(ctx context.Context, dst, e, start []float64, touched []int32) (relaxed, peak int, maxResid float64, converged bool, err error) {
	if len(e) != s.n || len(dst) != s.n {
		return 0, 0, 0, false, fmt.Errorf("fabp: belief vector lengths %d/%d do not match n=%d: %w", len(e), len(dst), s.n, errs.ErrDimensionMismatch)
	}
	if start == nil {
		s.eng.SeedExplicit(e)
	} else {
		if len(start) != s.n {
			return 0, 0, 0, false, fmt.Errorf("fabp: start vector length %d does not match n=%d: %w", len(start), s.n, errs.ErrDimensionMismatch)
		}
		s.eng.SeedWarm(start, e, touched)
	}
	relaxed, peak, maxResid, converged, err = s.eng.Run(ctx, s.maxRelax)
	copy(dst, s.eng.Beliefs())
	return relaxed, peak, maxResid, converged, err
}
