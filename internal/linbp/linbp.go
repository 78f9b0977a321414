// Package linbp implements the paper's primary contribution: Linearized
// Belief Propagation. It provides
//
//   - the iterative update equations (Eq. 6/7):
//     Bˆ ← Eˆ + A·Bˆ·Hˆ − D·Bˆ·Hˆ²   (LinBP, with echo cancellation)
//     Bˆ ← Eˆ + A·Bˆ·Hˆ             (LinBP*, without)
//   - the closed-form solutions via the Kronecker system of
//     Proposition 7 (Eq. 11/12), for small problems,
//   - the exact spectral convergence criteria of Lemma 8, and
//   - the sufficient norm-based criteria of Lemma 9 and Lemma 23.
//
// Beliefs and couplings are handled in residual (centered) form
// throughout; see packages beliefs and coupling.
package linbp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/spectral"
)

// Options tunes the iterative solver. The zero value selects defaults.
type Options struct {
	// EchoCancellation selects LinBP (true) or LinBP* (false).
	EchoCancellation bool
	// MaxIter bounds the number of update rounds (default 100).
	MaxIter int
	// Tol stops iteration when no belief entry changes by more than
	// Tol between rounds (default 1e-12). Set negative to force exactly
	// MaxIter rounds (the paper's timing runs use 5 fixed iterations).
	Tol float64
	// OnIteration, if set, is invoked after every update round with the
	// 1-based round number and the round's maximum belief change. Used
	// by the Fig. 7d experiment for per-iteration timing.
	OnIteration func(iter int, delta float64)
	// Workers parallelizes the fused update kernel across goroutines
	// (the role Parallel Colt played in the paper's JAVA
	// implementation). 0 or 1 keeps the single-threaded kernel the
	// paper's evaluation uses.
	Workers int
}

// DefaultMaxIter and DefaultTol are the zero-value defaults of Options,
// exported so the prepared-solver batch path iterates under exactly the
// same cap and tolerance as a one-shot run.
const (
	DefaultMaxIter = 100
	DefaultTol     = 1e-12
)

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	return o
}

// Result carries the outcome of a LinBP run.
type Result struct {
	// Beliefs is the final residual belief matrix Bˆ.
	Beliefs *beliefs.Residual
	// Iterations is the number of update rounds executed.
	Iterations int
	// Converged reports whether the fixpoint was reached within Tol.
	Converged bool
	// Delta is the final maximum belief change.
	Delta float64
}

func validate(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix) (n, k int, err error) {
	n, k = g.N(), h.Rows()
	if h.Cols() != k {
		return 0, 0, fmt.Errorf("linbp: coupling matrix %dx%d is not square: %w", h.Rows(), h.Cols(), errs.ErrDimensionMismatch)
	}
	if e.N() != n || e.K() != k {
		return 0, 0, fmt.Errorf("linbp: belief matrix %dx%d does not match n=%d k=%d: %w", e.N(), e.K(), n, k, errs.ErrDimensionMismatch)
	}
	return n, k, nil
}

// Run executes the iterative LinBP updates on graph g with explicit
// residual beliefs e and residual coupling matrix h (already scaled by
// εH). Iteration starts from Bˆ = 0 as Section 3 suggests.
//
// Each round runs through the fused compute engine of package kernel
// (sparse product, coupling multiply, echo cancellation, and delta in
// one row-partitioned pass); the n×k work buffers come from the
// engine's workspace pool, so repeated Runs do not reallocate them.
func Run(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix, opts Options) (*Result, error) {
	return runFrom(g, e, h, opts, nil)
}

// ClosedFormLimit is the largest n·k for which ClosedForm will
// materialize and invert the Kronecker system; beyond it the dense
// O((nk)³) solve is no longer reasonable.
const ClosedFormLimit = 4096

// ClosedForm solves the LinBP system exactly via Proposition 7:
//
//	vec(Bˆ) = (I_nk − Hˆ⊗A + Hˆ²⊗D)⁻¹ vec(Eˆ)     (LinBP)
//	vec(Bˆ) = (I_nk − Hˆ⊗A)⁻¹ vec(Eˆ)             (LinBP*)
//
// It is exact whenever the system matrix is invertible — even outside
// the spectral-radius convergence region of the iterative updates —
// and is used to validate the iterative solver. n·k must not exceed
// ClosedFormLimit.
func ClosedForm(g *graph.Graph, e *beliefs.Residual, h *dense.Matrix, echo bool) (*beliefs.Residual, error) {
	n, k, err := validate(g, e, h)
	if err != nil {
		return nil, err
	}
	if n*k > ClosedFormLimit {
		return nil, fmt.Errorf("linbp: closed form needs n·k <= %d, got %d: %w", ClosedFormLimit, n*k, errs.ErrInvalidInput)
	}
	// Dense A and D.
	a := g.Adjacency()
	ad := dense.New(n, n)
	for i := 0; i < n; i++ {
		a.Row(i, func(j int, v float64) { ad.Set(i, j, v) })
	}
	sys := dense.Identity(n * k).Minus(h.Kron(ad))
	if echo {
		dd := dense.New(n, n)
		for i, v := range g.WeightedDegrees() {
			dd.Set(i, i, v)
		}
		sys = sys.Plus(h.Mul(h).Kron(dd))
	}
	x, err := dense.Solve(sys, e.Matrix().Vec())
	if err != nil {
		return nil, fmt.Errorf("linbp: closed-form system is singular: %w", err)
	}
	return beliefs.FromMatrix(dense.Unvec(x, n, k)), nil
}

// Convergence describes the outcome of the criteria of Section 5.1 for
// one configuration (graph, Hˆ, echo flag).
type Convergence struct {
	// SpectralRadius is ρ(Hˆ⊗A − Hˆ²⊗D) for LinBP or ρ(Hˆ)·ρ(A) for
	// LinBP* — the exact quantity of Lemma 8.
	SpectralRadius float64
	// Exact reports Lemma 8's necessary-and-sufficient criterion:
	// SpectralRadius < 1.
	Exact bool
	// NormBound is the value the sufficient criterion of Lemma 9
	// compares ‖Hˆ‖ against, using the min over the norm set M.
	NormBound float64
	// HNorm is ‖Hˆ‖_M.
	HNorm float64
	// Sufficient reports Lemma 9's easier (sufficient-only) criterion:
	// HNorm < NormBound.
	Sufficient bool
}

// CheckConvergence evaluates both the exact (Lemma 8, block by block, so
// Hˆ must be symmetric) and the norm-based sufficient (Lemma 9) criteria.
func CheckConvergence(g *graph.Graph, h *dense.Matrix, echo bool) (*Convergence, error) {
	lambdas, err := couplingSpectrum(h)
	if err != nil {
		return nil, err
	}
	a := g.Adjacency()
	m := newLemma8(a, echoDegrees(a, echo))
	c := &Convergence{HNorm: h.MinNorm(), NormBound: m.normBound}
	for _, lambda := range lambdas {
		m.lz.Reset()
		rho, _, err := m.radius(lambda)
		if err != nil {
			return nil, err
		}
		c.SpectralRadius = math.Max(c.SpectralRadius, rho)
	}
	c.Exact = c.SpectralRadius < 1
	c.Sufficient = c.HNorm < c.NormBound
	return c, nil
}

// SimpleNormBound implements Lemma 23: LinBP converges if
// ‖Hˆ‖ < 1/(2‖A‖) for the induced 1- or ∞-norm. It returns the bound
// value 1/(2‖A‖) (∞ if the graph has no edges).
func SimpleNormBound(g *graph.Graph) float64 {
	a := g.Adjacency()
	norm := math.Min(a.MaxAbsColSum(), a.MaxAbsRowSum())
	if norm == 0 {
		return math.Inf(1)
	}
	return 1 / (2 * norm)
}

// MaxEpsilonH returns the largest εH for which the chosen criterion
// guarantees convergence with Hˆ = εH·ho: the exact spectral criterion
// (see ExactThreshold) or the closed-form norm bound.
func MaxEpsilonH(g *graph.Graph, ho *dense.Matrix, echo bool, exact bool) (float64, error) {
	if exact {
		eps, _, err := ExactThreshold(g, ho, echo)
		return eps, err
	}
	// The norm bound does not depend on Hˆ, so εH < bound/‖Hˆo‖.
	a := g.Adjacency()
	return newLemma8(a, echoDegrees(a, echo)).normBound / ho.MinNorm(), nil
}

// ExactThreshold is MaxEpsilonH's exact branch, also reporting the
// n-dimensional operator applications spent. ho must be symmetric (or
// the error wraps ErrInvalidCoupling).
func ExactThreshold(g *graph.Graph, ho *dense.Matrix, echo bool) (eps float64, matvecs int, err error) {
	return ExactThresholdOn(g.Adjacency(), ho, echo)
}

// ExactThresholdOn is ExactThreshold on the adjacency matrix a, so a
// caller that maintains the matrix without a graph (the dynamic plane's
// compaction) derives the same threshold. A block's radius depends on
// its λ only through s = εH·λ, so per sign of s the largest |λ| crosses
// first.
func ExactThresholdOn(a *sparse.CSR, ho *dense.Matrix, echo bool) (eps float64, matvecs int, err error) {
	lambdas, err := couplingSpectrum(ho)
	if err != nil {
		return 0, 0, err
	}
	m := newLemma8(a, echoDegrees(a, echo))
	first, second := slices.Max(append(lambdas, 0)), slices.Min(append(lambdas, 0))
	if -second > first {
		first, second = second, first
	}
	eps = math.Inf(1)
	for _, lambda := range []float64{first, second} {
		if lambda != 0 && !math.IsInf(m.normBound, 1) {
			e, err := m.crossing(lambda, eps)
			if err != nil {
				return 0, m.lz.Matvecs, err
			}
			eps = math.Min(eps, e)
		}
	}
	return eps, m.lz.Matvecs, nil
}

// lemma8 evaluates Lemma 8 block by block: for a symmetric Hˆ = QΛQᵀ,
// (Q⊗I)ᵀ(Hˆ⊗A − Hˆ²⊗D)(Q⊗I) has the n×n diagonal blocks λᵢA − λᵢ²D (cf.
// the Bethe Hessian of Saade, Krzakala & Zdeborová), so ρ is the largest
// r(λᵢ), r(s) = ρ(sA − s²D), with D = 0 for LinBP*. As an Operator it
// applies the block of s; one Lanczos value serves every evaluation.
type lemma8 struct {
	a         *sparse.CSR
	d         []float64 // weighted degrees; zero for LinBP*
	s         float64
	normBound float64 // Lemma 9: r(s) ≤ |s|·‖A‖ + s²·‖D‖ < 1 for |s| below it
	lz        spectral.Lanczos
}

// echoDegrees returns D's diagonal for newLemma8: the weighted degrees
// of a (its RowSumsSquared) for LinBP, nil for LinBP*.
func echoDegrees(a *sparse.CSR, echo bool) []float64 {
	if !echo {
		return nil
	}
	return a.RowSumsSquared()
}

// newLemma8 builds the operator on the adjacency a and the weighted
// degrees d (RowSumsSquared); a nil d drops the echo term (LinBP*).
func newLemma8(a *sparse.CSR, d []float64) *lemma8 {
	m := &lemma8{a: a, d: d}
	if m.d == nil {
		m.d = make([]float64, a.Rows())
	}
	// ‖A‖ is the min over {Frobenius, induced-1, induced-∞}, and all three
	// norms of the diagonal D are its max; +Inf without edges.
	normA, maxD := minNormCSR(m.a), 0.0
	for _, v := range m.d {
		maxD = math.Max(maxD, v)
	}
	m.normBound = 2 / (normA + math.Sqrt(normA*normA+4*maxD))
	return m
}

func (m *lemma8) Dim() int { return m.a.Rows() }

// Apply implements spectral.Operator: dst = s·A·src − s²·D∘src.
func (m *lemma8) Apply(dst, src []float64) {
	m.a.MulVecInto(dst, src)
	for i, v := range dst {
		dst[i] = m.s*v - m.s*m.s*m.d[i]*src[i]
	}
}

// radius returns r(s) and dr/dt for t = |s|. For the dominant Ritz pair
// (θ, x), Hellmann–Feynman gives dθ/dt = xᵀ(±A − 2tD)x, which the Ritz
// relation θ = xᵀ(sA − s²D)x turns into θ/t − t·xᵀDx.
func (m *lemma8) radius(s float64) (r, slope float64, err error) {
	m.s = s
	lo, hi, err := m.lz.Extremes(m)
	if err != nil {
		return 0, 0, err
	}
	theta, x := hi, m.lz.MaxVec()
	if -lo > hi {
		theta, x = lo, m.lz.MinVec()
	}
	t, xdx := math.Abs(s), 0.0
	for i, v := range m.d {
		xdx += v * x[i] * x[i]
	}
	return math.Abs(theta), math.Copysign(1, theta) * (theta/t - t*xdx), nil
}

// crossing returns the εH where r(εH·λ) crosses 1 (+Inf beyond 1e6) by
// safeguarded Newton steps in a bracket with r(lo·λ) < 1 ≤ r(hi·λ), the
// crossing semantics of a bisection, from Lemma 9's bound, or from another
// block's threshold below, returning +Inf at once if r < 1 there. Steps
// warm-start Lanczos from the last; a warm start can miss an eigenvector
// and understate ρ (Ritz values never overstate it), so only cold
// evaluations move lo and a settled root needs a cold confirmation.
func (m *lemma8) crossing(lambda, below float64) (float64, error) {
	t, lo, hi := math.Abs(lambda), 0.0, math.Inf(1)
	eps := m.normBound / t
	if !math.IsInf(below, 1) {
		eps = below
	}
	for step, cold := 0, true; step < 100; step++ {
		if cold {
			m.lz.Reset()
		}
		r, slope, err := m.radius(eps * lambda)
		switch {
		case err != nil:
			return 0, err
		case r >= 1:
			hi = eps
		case step == 0 && eps == below:
			return math.Inf(1), nil
		case cold:
			lo = eps
		}
		next := eps + (1-r)/(slope*t)
		settled := math.Abs(next-eps) <= 1e-10*eps
		if settled && cold {
			return next, nil
		}
		if !settled && !(next > lo && next < hi) { // Newton left the bracket
			next = math.Min(2*eps, (lo+hi)/2)
		}
		if next > 1e6 {
			return math.Inf(1), nil
		}
		cold, eps = settled, next
	}
	return 0, fmt.Errorf("linbp: Lemma 8 threshold search for λ=%g did not settle: %w", lambda, errs.ErrNotConverged)
}

// couplingSpectrum returns the distinct, non-negligible eigenvalues of
// the symmetric coupling matrix h in ascending order.
func couplingSpectrum(h *dense.Matrix) ([]float64, error) {
	if h.MaxAbsDiff(h.T()) > 1e-9*h.MaxAbs() {
		return nil, fmt.Errorf("linbp: the exact criterion needs a symmetric Hˆ: %w", coupling.ErrNotSymmetric)
	}
	vals := h.SymEigenvalues()
	slices.Sort(vals)
	tol := 1e-12 * h.MaxAbs()
	vals = slices.DeleteFunc(vals, func(v float64) bool { return math.Abs(v) <= tol })
	return slices.CompactFunc(vals, func(a, b float64) bool { return math.Abs(a-b) <= tol }), nil
}

// minNormCSR is min(Frobenius, induced-1, induced-∞) for a CSR matrix.
func minNormCSR(a interface {
	MaxAbsColSum() float64
	MaxAbsRowSum() float64
	RowSumsSquared() []float64
}) float64 {
	var fro float64
	for _, v := range a.RowSumsSquared() {
		fro += v
	}
	fro = math.Sqrt(fro)
	return math.Min(fro, math.Min(a.MaxAbsColSum(), a.MaxAbsRowSum()))
}
