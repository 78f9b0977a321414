package linbp

import (
	"context"
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/kernel"
	"repro/internal/order"
	"repro/internal/sparse"
)

// ResidualEngine is the residual-scheduled counterpart of Engine: the
// same prepared (graph, coupling) surface, served by the push-based
// relaxation plane of kernel.ResidualEngine instead of synchronous
// rounds. It carries the same permutation plumbing — explicit beliefs,
// warm starts, and touched-row sets come in under the caller's node
// ids and are shuffled into the layout order in one pass — so the
// prepared-solver path can swap schedules without touching its belief
// handling. Steady-state solves perform zero allocations.
//
// A ResidualEngine is not safe for concurrent use; run one per
// goroutine or pool them as the prepared solvers do.
type ResidualEngine struct {
	eng      *kernel.ResidualEngine
	n, k     int
	maxRelax int
	closed   bool

	perm  order.Permutation
	eperm []float64 // permuted explicit beliefs
	sperm []float64 // permuted warm-start beliefs
	tperm []int32   // permuted touched-row ids
}

// NewResidualEngineLayout prepares a residual-scheduled solver over an
// explicit adjacency layout, mirroring NewEngineLayout: a (possibly
// reordered) symmetric CSR a, the matching degree vector d (nil
// disables echo cancellation), the residual coupling h (already scaled
// by εH), and the relabeling perm (perm[old] = new; nil for the
// natural order). opts.Tol is the relaxation tolerance and must be
// positive — the residual schedule has no fixed-round mode; opts
// .MaxIter bounds the work at MaxIter·n row relaxations, the budget of
// MaxIter full rounds. opts.Workers is ignored (the plane is
// sequential); opts.OnIteration is not invoked (there are no rounds to
// observe).
func NewResidualEngineLayout(a *sparse.CSR, d []float64, h *dense.Matrix, perm []int, opts Options) (*ResidualEngine, error) {
	opts = opts.withDefaults()
	if opts.Tol <= 0 {
		return nil, fmt.Errorf("linbp: residual schedule needs a positive tolerance, got %v: %w", opts.Tol, errs.ErrInvalidInput)
	}
	n, k := a.Rows(), h.Rows()
	if h.Cols() != k {
		return nil, fmt.Errorf("linbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	if perm != nil && len(perm) != n {
		return nil, fmt.Errorf("linbp: permutation length %d does not match n=%d: %w", len(perm), n, errs.ErrDimensionMismatch)
	}
	eng, err := kernel.NewResidual(kernel.Config{A: a, D: d, H: h, SymmetricA: true}, opts.Tol)
	if err != nil {
		return nil, fmt.Errorf("linbp: %w", err)
	}
	s := &ResidualEngine{eng: eng, n: n, k: k, maxRelax: opts.MaxIter * n, perm: perm}
	s.tperm = make([]int32, 0, n)
	if perm != nil {
		s.eperm = make([]float64, n*k)
		s.sperm = make([]float64, n*k)
	}
	return s, nil
}

// SolveSeededContext runs the residual-scheduled solve. A nil start is
// the cold solve seeded from the explicit beliefs alone. A non-nil
// start (a previous fixpoint, in the caller's node order) seeds the
// warm solve: with touched nil the residual is recomputed for every
// row (valid from any start, one round-equivalent of seeding work);
// with touched set (caller node ids, deduplicated) only those rows are
// recomputed — the localized path, valid when start converged for the
// unchanged rows. dst receives the final beliefs in the caller's node
// order at every exit. relaxed counts row relaxations, peak is the
// queue's high-water population, and maxResid is the largest residual
// magnitude remaining (at most the tolerance when converged).
//
//lsbp:hotpath
func (s *ResidualEngine) SolveSeededContext(ctx context.Context, dst, e, start *beliefs.Residual, touched []int) (relaxed, peak int, maxResid float64, converged bool, err error) {
	if s.closed {
		return 0, 0, 0, false, fmt.Errorf("linbp: %w", errs.ErrClosed)
	}
	if e != nil && (e.N() != s.n || e.K() != s.k) {
		return 0, 0, 0, false, fmt.Errorf("linbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	if dst.N() != s.n || dst.K() != s.k {
		return 0, 0, 0, false, fmt.Errorf("linbp: destination matrix %dx%d does not match n=%d k=%d: %w", dst.N(), dst.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	var ed []float64
	if e != nil {
		ed = e.Matrix().Data()
		if s.perm != nil {
			s.perm.ApplyRows(s.eperm, ed, s.k)
			ed = s.eperm
		}
	}
	if start == nil {
		s.eng.SeedExplicit(ed)
	} else {
		if start.N() != s.n || start.K() != s.k {
			return 0, 0, 0, false, fmt.Errorf("linbp: start matrix %dx%d does not match n=%d k=%d: %w", start.N(), start.K(), s.n, s.k, errs.ErrDimensionMismatch)
		}
		sd := start.Matrix().Data()
		if s.perm != nil {
			s.perm.ApplyRows(s.sperm, sd, s.k)
			sd = s.sperm
		}
		s.eng.SeedWarm(sd, ed, s.permTouched(touched))
	}
	relaxed, peak, maxResid, converged, err = s.eng.Run(ctx, s.maxRelax)
	dd := dst.Matrix().Data()
	if s.perm == nil {
		copy(dd, s.eng.Beliefs())
	} else {
		s.perm.InvertRows(dd, s.eng.Beliefs(), s.k)
	}
	return relaxed, peak, maxResid, converged, err
}

// permTouched maps caller node ids to engine rows. nil stays nil (the
// recompute-every-row seed); under the natural order ids are engine
// rows already, but the kernel takes int32, so both branches reuse the
// tperm buffer.
//
//lsbp:hotpath
func (s *ResidualEngine) permTouched(touched []int) []int32 {
	if touched == nil {
		return nil
	}
	t := s.tperm[:0]
	if s.perm == nil {
		for _, id := range touched {
			t = append(t, int32(id))
		}
	} else {
		for _, id := range touched {
			t = append(t, int32(s.perm[id]))
		}
	}
	s.tperm = t
	return t
}

// Close marks the engine unusable. The residual plane holds no
// goroutines or pooled workspaces, so this only fences use-after-close;
// it is idempotent.
func (s *ResidualEngine) Close() {
	s.closed = true
}
