package spectral

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/sparse"
)

// path returns the adjacency of the n-node path, whose eigenvalues are
// 2·cos(πj/(n+1)) for j = 1..n.
func path(n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		b.AddSym(i, i+1, 1)
	}
	return b.ToCSR()
}

// checkPair verifies ‖M·x − θ·x‖ ≤ tol for a unit x.
func checkPair(t *testing.T, op Operator, theta float64, x []float64, tol float64) {
	t.Helper()
	if math.Abs(dense.Norm2(x)-1) > 1e-9 {
		t.Fatalf("Ritz vector norm %v, want 1", dense.Norm2(x))
	}
	y := make([]float64, len(x))
	op.Apply(y, x)
	dense.AxpyInto(y, -theta, x, y)
	if r := dense.Norm2(y); r > tol {
		t.Fatalf("residual %g for θ=%v", r, theta)
	}
}

func TestLanczosPathExtremes(t *testing.T) {
	for _, n := range []int{1, 2, 5, 31, 200} {
		op := CSROp{path(n)}
		var l Lanczos
		lo, hi, err := l.Extremes(op)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := 2 * math.Cos(math.Pi/float64(n+1))
		if n == 1 {
			want = 0
		}
		if math.Abs(hi-want) > 1e-10 || math.Abs(lo+want) > 1e-10 {
			t.Fatalf("n=%d: extremes [%v, %v], want ±%v", n, lo, hi, want)
		}
		checkPair(t, op, lo, l.MinVec(), 1e-8)
		checkPair(t, op, hi, l.MaxVec(), 1e-8)
	}
}

// TestLanczosWarmStart: a second call on a nearby operator starts from
// the previous Ritz vectors and needs far fewer applications than the
// cold first call, with the same answer as a cold solve.
func TestLanczosWarmStart(t *testing.T) {
	a := path(150)
	d := make([]float64, 150)
	for i := range d {
		d[i] = float64(i%5) / 4
	}
	at := func(s float64) Operator { return shifted{a, d, s} }

	var warm Lanczos
	if _, _, err := warm.Extremes(at(0.3)); err != nil {
		t.Fatal(err)
	}
	coldCost := warm.Matvecs
	lo, hi, err := warm.Extremes(at(0.3001))
	if err != nil {
		t.Fatal(err)
	}
	warmCost := warm.Matvecs - coldCost
	if warmCost*2 > coldCost {
		t.Fatalf("warm call took %d applications, cold %d", warmCost, coldCost)
	}
	var cold Lanczos
	clo, chi, err := cold.Extremes(at(0.3001))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-clo) > 1e-10 || math.Abs(hi-chi) > 1e-10 {
		t.Fatalf("warm [%v, %v] vs cold [%v, %v]", lo, hi, clo, chi)
	}
	// Reset drops the warm start: the next call pays a cold cost again.
	warm.Reset()
	before := warm.Matvecs
	if _, _, err := warm.Extremes(at(0.3001)); err != nil {
		t.Fatal(err)
	}
	if resetCost := warm.Matvecs - before; resetCost < 2*warmCost {
		t.Fatalf("after Reset: %d applications, warm %d", resetCost, warmCost)
	}
}

// shifted is s·A − s²·diag(d).
type shifted struct {
	a *sparse.CSR
	d []float64
	s float64
}

func (o shifted) Dim() int { return o.a.Rows() }
func (o shifted) Apply(dst, src []float64) {
	o.a.MulVecInto(dst, src)
	for i := range dst {
		dst[i] = o.s*dst[i] - o.s*o.s*o.d[i]*src[i]
	}
}

// TestLanczosRestart: the 300-node path's clustered extremes need more
// steps than the basis holds, so the basis must thick-restart and still
// converge.
func TestLanczosRestart(t *testing.T) {
	op := CSROp{path(300)}
	var l Lanczos
	lo, hi, err := l.Extremes(op)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Cos(math.Pi/301)
	if math.Abs(hi-want) > 1e-9 || math.Abs(lo+want) > 1e-9 {
		t.Fatalf("extremes [%v, %v], want ±%v", lo, hi, want)
	}
	if l.Matvecs <= lanczosBasis {
		t.Fatalf("only %d applications: the basis never restarted", l.Matvecs)
	}
}

// TestLanczosNotConverged: a cap too small for the tolerance must be
// reported, with the last estimates, instead of passing for an answer.
func TestLanczosNotConverged(t *testing.T) {
	op := CSROp{path(500)}
	l := Lanczos{MaxIter: 3}
	lo, hi, err := l.Extremes(op)
	if !errors.Is(err, errs.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if l.Matvecs != 3 {
		t.Fatalf("%d applications, want the cap of 3", l.Matvecs)
	}
	if !(lo < 0 && hi > 0 && hi < 2) {
		t.Fatalf("estimates [%v, %v] should lie inside the spectrum", lo, hi)
	}
}

func TestLanczosZeroOperator(t *testing.T) {
	var l Lanczos
	lo, hi, err := l.Extremes(CSROp{sparse.NewBuilder(4, 4).ToCSR()})
	if err != nil || lo != 0 || hi != 0 {
		t.Fatalf("zero operator: [%v, %v], %v", lo, hi, err)
	}
	if lo, hi, err := l.Extremes(CSROp{sparse.NewBuilder(0, 0).ToCSR()}); err != nil || lo != 0 || hi != 0 {
		t.Fatalf("empty operator: [%v, %v], %v", lo, hi, err)
	}
}
