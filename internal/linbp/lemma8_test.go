package linbp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/spectral"
)

// fullOp is the nk-dimensional Lemma 8 operator Hˆ⊗A − Hˆ²⊗D (Hˆ⊗A
// without echo), applied by the solver's fused kernel.
type fullOp struct {
	eng *kernel.Engine
	dim int
}

func (o fullOp) Dim() int                 { return o.dim }
func (o fullOp) Apply(dst, src []float64) { o.eng.ApplyInto(dst, src) }

// referenceMaxEpsilonH is the exact search the block-diagonal one
// replaced: a fresh power iteration on the full operator for every step
// of a doubling bracket from εH = 1 and a 60-step bisection.
func referenceMaxEpsilonH(g *graph.Graph, ho *dense.Matrix, echo bool) (float64, error) {
	radius := func(eps float64) (float64, error) {
		var d []float64
		if echo {
			d = g.WeightedDegrees()
		}
		eng, err := kernel.New(kernel.Config{A: g.Adjacency(), D: d, H: ho.Scaled(eps)}, nil)
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		rho, err := spectral.Radius(fullOp{eng, g.N() * ho.Rows()}, spectral.Options{MaxIter: 5000})
		if err != nil && !errors.Is(err, spectral.ErrNoConverge) {
			return 0, err
		}
		return rho, nil
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 60; iter++ {
		r, err := radius(hi)
		if err != nil {
			return 0, err
		}
		if r >= 1 {
			break
		}
		lo, hi = hi, hi*2
		if hi > 1e6 {
			return math.Inf(1), nil
		}
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		r, err := radius(mid)
		if err != nil {
			return 0, err
		}
		if r < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// mixedSign is a k=3 residual coupling with eigenvalues 0.3, −0.25 and
// 0: both signs of the block parameter reach the threshold at nearly
// the same εH.
func mixedSign() *dense.Matrix {
	u := []float64{1 / math.Sqrt2, -1 / math.Sqrt2, 0}
	w := []float64{1 / math.Sqrt(6), 1 / math.Sqrt(6), -2 / math.Sqrt(6)}
	h := dense.New(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			h.Set(i, j, 0.3*u[i]*u[j]-0.25*w[i]*w[j])
		}
	}
	return h
}

func lemma8Couplings(t *testing.T) map[string]*dense.Matrix {
	return map[string]*dense.Matrix{
		"fig6b":       coupling.Fig6bResidual(),
		"fig1c":       ho(t),
		"heterophily": coupling.Heterophily(0.3),
		"mixed":       mixedSign(),
	}
}

// TestMaxEpsilonHMatchesReference pins the block-diagonal search to the
// full-operator bisection across graphs, couplings and echo settings.
func TestMaxEpsilonHMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference bisection runs 120 power iterations per cell")
	}
	graphs := map[string]*graph.Graph{
		"torus":     gen.Torus(),
		"kron5":     gen.Kronecker(5),
		"random200": gen.Random(200, 600, 7),
		// A disjoint star: its hub's block eigenvector becomes extreme
		// only near the threshold, invisible to a warm start from the
		// random graph's Ritz vectors.
		"random200+star20": withStar(gen.Random(200, 600, 7), 20),
	}
	for gname, g := range graphs {
		for hname, h := range lemma8Couplings(t) {
			for _, echo := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/echo=%v", gname, hname, echo), func(t *testing.T) {
					got, err := MaxEpsilonH(g, h, echo, true)
					if err != nil {
						t.Fatal(err)
					}
					want, err := referenceMaxEpsilonH(g, h, echo)
					if err != nil {
						t.Fatal(err)
					}
					if rel := math.Abs(got-want) / want; !(rel <= 1e-6) {
						t.Fatalf("MaxEpsilonH = %.12g, reference %.12g (rel %.2g)", got, want, rel)
					}
				})
			}
		}
	}
}

// withStar returns g plus a disjoint star of the given number of leaves.
func withStar(g *graph.Graph, leaves int) *graph.Graph {
	n := g.N()
	out := graph.New(n + leaves + 1)
	for _, e := range g.Edges() {
		out.AddEdge(e.S, e.T, e.W)
	}
	for i := 1; i <= leaves; i++ {
		out.AddEdge(n, n+i, 1)
	}
	return out
}

// TestLinBPStarClosedForm: without echo cancellation the threshold is
// 1/(ρ(A)·ρ(Hˆo)).
func TestLinBPStarClosedForm(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Torus(), gen.Kronecker(5), gen.Random(200, 600, 7)} {
		rhoA, err := spectral.RadiusCSR(g.Adjacency(), spectral.Options{MaxIter: 100000, Tol: 1e-14})
		if err != nil {
			t.Fatal(err)
		}
		for hname, h := range lemma8Couplings(t) {
			vals := h.SymEigenvalues()
			var rhoH float64
			for _, v := range vals {
				rhoH = math.Max(rhoH, math.Abs(v))
			}
			got, err := MaxEpsilonH(g, h, false, true)
			if err != nil {
				t.Fatal(err)
			}
			want := 1 / (rhoA * rhoH)
			if rel := math.Abs(got-want) / want; rel > 1e-9 {
				t.Fatalf("%s: LinBP* threshold %.15g, closed form %.15g (rel %.2g)", hname, got, want, rel)
			}
		}
	}
}

// denseRadius is ρ(Hˆ⊗A − Hˆ²⊗D) from the explicit nk×nk matrix.
func denseRadius(g *graph.Graph, h *dense.Matrix, echo bool) float64 {
	n := g.N()
	ad, dd := dense.New(n, n), dense.New(n, n)
	for i := 0; i < n; i++ {
		g.Adjacency().Row(i, func(j int, v float64) { ad.Set(i, j, v) })
	}
	if echo {
		for i, v := range g.WeightedDegrees() {
			dd.Set(i, i, v)
		}
	}
	vals := h.Kron(ad).Minus(h.Mul(h).Kron(dd)).SymEigenvalues()
	var rho float64
	for _, v := range vals {
		rho = math.Max(rho, math.Abs(v))
	}
	return rho
}

// TestCheckConvergenceMatchesDenseRadius pins the block-diagonal radius
// to the explicit Kronecker operator on small graphs.
func TestCheckConvergenceMatchesDenseRadius(t *testing.T) {
	weighted := graph.New(5)
	weighted.AddEdge(0, 1, 2)
	weighted.AddEdge(1, 2, 0.5)
	weighted.AddEdge(2, 3, 1.5)
	weighted.AddEdge(3, 0, 1)
	weighted.AddEdge(1, 4, 3)
	graphs := map[string]*graph.Graph{
		"torus":    gen.Torus(),
		"random30": gen.Random(30, 70, 17),
		"weighted": weighted,
	}
	for gname, g := range graphs {
		for hname, h := range lemma8Couplings(t) {
			for _, echo := range []bool{true, false} {
				for _, eps := range []float64{0.05, 0.3, 0.7, 1.5} {
					hs := h.Scaled(eps)
					c, err := CheckConvergence(g, hs, echo)
					if err != nil {
						t.Fatal(err)
					}
					if want := denseRadius(g, hs, echo); math.Abs(c.SpectralRadius-want) > 1e-9 {
						t.Fatalf("%s/%s/echo=%v/eps=%v: radius %.15g, dense %.15g",
							gname, hname, echo, eps, c.SpectralRadius, want)
					}
				}
			}
		}
	}
}

// TestExactSearchSurfacesNonConvergence: an eigen-solve that misses its
// tolerance within its cap must fail the criterion, not decide it.
func TestExactSearchSurfacesNonConvergence(t *testing.T) {
	a := gen.Kronecker(5).Adjacency()
	m := newLemma8(a, a.RowSumsSquared())
	m.lz.MaxIter = 2
	if _, _, err := m.radius(0.1); !errors.Is(err, errs.ErrNotConverged) {
		t.Fatalf("capped block radius: err = %v, want ErrNotConverged", err)
	}
}

// TestExactCriterionRejectsAsymmetricCoupling: the block decomposition
// needs a symmetric Hˆo.
func TestExactCriterionRejectsAsymmetricCoupling(t *testing.T) {
	h := dense.NewFromRows([][]float64{{0.1, -0.1}, {-0.2, 0.2}})
	if _, err := MaxEpsilonH(gen.Torus(), h, true, true); !errors.Is(err, errs.ErrInvalidCoupling) {
		t.Fatalf("MaxEpsilonH: err = %v, want ErrInvalidCoupling", err)
	}
	if _, err := CheckConvergence(gen.Torus(), h, false); !errors.Is(err, errs.ErrInvalidCoupling) {
		t.Fatalf("CheckConvergence: err = %v, want ErrInvalidCoupling", err)
	}
}

// TestMaxEpsilonHKroneckerPower8 pins the threshold on the power-8
// Kronecker graph with the Fig. 6b Hˆo to the recorded value the
// serving benchmark's cold starts check (twice its auto εH).
func TestMaxEpsilonHKroneckerPower8(t *testing.T) {
	const want = 2 * 0.042349442205630958
	got, err := MaxEpsilonH(gen.Kronecker(8), coupling.Fig6bResidual(), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 1e-6 {
		t.Fatalf("MaxEpsilonH = %.17g, recorded %.17g (rel %.2g)", got, want, rel)
	}
}
