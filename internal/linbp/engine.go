package linbp

import (
	"context"
	"fmt"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Engine is a LinBP solver prepared once for a fixed graph and coupling
// and reused across many solves — the serving scenario where the same
// network answers classification queries for changing explicit beliefs.
// All n×k work buffers live in the underlying kernel engine, so
// steady-state SolveInto calls perform zero allocations.
//
// An Engine is not safe for concurrent use; run one per goroutine or
// serialize access. Call Close when done.
type Engine struct {
	eng    *kernel.Engine
	ws     *kernel.Workspace
	n, k   int
	opts   Options
	closed bool

	// perm, when non-nil, is the node relabeling (perm[old] = new) the
	// engine's adjacency layout was prepared under. Explicit beliefs
	// are permuted into eperm on the way in and results are permuted
	// back on the way out, so callers never see the internal order.
	perm  order.Permutation
	eperm []float64
}

// NewEngine prepares a reusable solver for graph g and residual
// coupling h (already scaled by εH). opts.OnIteration is honored on
// every solve.
func NewEngine(g *graph.Graph, h *dense.Matrix, opts Options) (*Engine, error) {
	var d []float64
	if opts.EchoCancellation {
		d = g.WeightedDegrees()
	}
	return NewEngineLayout(g.Adjacency(), d, h, nil, opts)
}

// NewEngineLayout prepares an engine over an explicit adjacency layout:
// a (possibly reordered) CSR a, the matching degree vector d (nil
// disables echo cancellation regardless of opts.EchoCancellation), and
// the relabeling perm (perm[old] = new; nil for the natural order)
// under which a and d were produced. The layout optimizer in the
// prepared-solver path uses this to serve solves over a
// locality-ordered graph while callers keep their node ids: explicit
// beliefs are permuted in, results are permuted back out, with no
// steady-state allocations beyond NewEngine's.
func NewEngineLayout(a *sparse.CSR, d []float64, h *dense.Matrix, perm []int, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	n, k := a.Rows(), h.Rows()
	if h.Cols() != k {
		return nil, fmt.Errorf("linbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	if perm != nil && len(perm) != n {
		return nil, fmt.Errorf("linbp: permutation length %d does not match n=%d: %w", len(perm), n, errs.ErrDimensionMismatch)
	}
	ws := kernel.GetWorkspace()
	eng, err := kernel.New(kernel.Config{A: a, D: d, H: h, Workers: opts.Workers, SymmetricA: true}, ws)
	if err != nil {
		ws.Release()
		return nil, fmt.Errorf("linbp: %w", err)
	}
	e := &Engine{eng: eng, ws: ws, n: n, k: k, opts: opts, perm: perm}
	if perm != nil {
		e.eperm = make([]float64, n*k)
	}
	return e, nil
}

// Solve runs LinBP for the explicit beliefs e, allocating a fresh
// result. Use SolveInto for the zero-allocation path.
func (s *Engine) Solve(e *beliefs.Residual) (*Result, error) {
	dst := beliefs.New(s.n, s.k)
	iters, delta, converged, err := s.SolveInto(dst, e)
	if err != nil {
		return nil, err
	}
	return &Result{Beliefs: dst, Iterations: iters, Converged: converged, Delta: delta}, nil
}

// SolveInto runs LinBP for the explicit beliefs e and writes the final
// residual beliefs into dst (n×k, overwritten). In steady state it
// performs no allocations.
//
//lsbp:hotpath
func (s *Engine) SolveInto(dst *beliefs.Residual, e *beliefs.Residual) (iters int, delta float64, converged bool, err error) {
	return s.SolveIntoContext(context.Background(), dst, e)
}

// SolveIntoContext is SolveInto with cooperative cancellation: ctx is
// checked at every kernel round boundary, and on cancellation the
// solve aborts with ctx.Err() after at most one more round. dst then
// holds the last completed iterate.
//
//lsbp:hotpath
func (s *Engine) SolveIntoContext(ctx context.Context, dst *beliefs.Residual, e *beliefs.Residual) (iters int, delta float64, converged bool, err error) {
	return s.SolveFromIntoContext(ctx, dst, e, nil)
}

// SolveFromIntoContext is SolveIntoContext warm-started from start
// instead of the Bˆ = 0 zero start: the iteration begins at the
// provided beliefs (in the caller's node order; the engine shuffles
// them into its layout in one pass), so a solve whose inputs changed
// only slightly since the previous fixpoint converges in far fewer
// rounds — the incremental-maintenance direction of the paper's
// Section 8. The fixpoint is unique whenever the convergence criterion
// holds, so warm starting changes the iteration count, never the
// answer. A nil start is the ordinary cold solve (with its Bˆ¹ = Eˆ
// first-round shortcut); a non-nil start disables that shortcut and
// runs full rounds from the given state.
//
//lsbp:hotpath
func (s *Engine) SolveFromIntoContext(ctx context.Context, dst, e, start *beliefs.Residual) (iters int, delta float64, converged bool, err error) {
	if s.closed {
		return 0, 0, false, fmt.Errorf("linbp: %w", errs.ErrClosed)
	}
	if e.N() != s.n || e.K() != s.k {
		return 0, 0, false, fmt.Errorf("linbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	if dst.N() != s.n || dst.K() != s.k {
		return 0, 0, false, fmt.Errorf("linbp: destination matrix %dx%d does not match n=%d k=%d: %w", dst.N(), dst.K(), s.n, s.k, errs.ErrDimensionMismatch)
	}
	if start == nil {
		s.eng.ResetFast()
	} else {
		if start.N() != s.n || start.K() != s.k {
			return 0, 0, false, fmt.Errorf("linbp: start matrix %dx%d does not match n=%d k=%d: %w", start.N(), start.K(), s.n, s.k, errs.ErrDimensionMismatch)
		}
		s.eng.SetStartPermuted(start.Matrix().Data(), s.perm)
	}
	ed := e.Matrix().Data()
	if s.perm == nil {
		s.eng.SetExplicit(ed)
	} else {
		// Shuffle the explicit beliefs into the engine's node order.
		s.perm.ApplyRows(s.eperm, ed, s.k)
		s.eng.SetExplicit(s.eperm)
	}
	iters, delta, converged, err = s.eng.RunContext(ctx, s.opts.MaxIter, s.opts.Tol, s.opts.OnIteration)
	dd := dst.Matrix().Data()
	if iters == 0 {
		// Nothing ran (pre-cancelled context or a zero iteration cap):
		// the last completed iterate is the starting point — the warm
		// start when one was given, else the zero start (with ResetFast
		// the engine buffer may hold a previous solve, so it is not
		// read).
		if start != nil {
			copy(dd, start.Matrix().Data())
		} else {
			for i := range dd {
				dd[i] = 0
			}
		}
		return iters, delta, converged, err
	}
	if s.perm == nil {
		copy(dd, s.eng.Beliefs())
	} else {
		// Un-shuffle straight from the engine state: one pass, no
		// intermediate buffer.
		s.perm.InvertRows(dd, s.eng.Beliefs(), s.k)
	}
	return iters, delta, converged, err
}

// Close releases the worker pool and returns the workspace to the
// package pool. The engine must not be used afterwards; Close is
// idempotent.
func (s *Engine) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.Close()
	s.ws.Release()
}
