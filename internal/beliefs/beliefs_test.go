package beliefs

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

func TestNewAndShape(t *testing.T) {
	r := New(5, 3)
	if r.N() != 5 || r.K() != 3 {
		t.Fatalf("shape %dx%d", r.N(), r.K())
	}
	if r.IsExplicit(0) {
		t.Fatal("fresh matrix must have no explicit nodes")
	}
}

func TestNewPanicsOnK1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 1)
}

func TestSetValidatesZeroSum(t *testing.T) {
	r := New(2, 3)
	r.Set(0, []float64{2, -1, -1})
	if !r.IsExplicit(0) || r.IsExplicit(1) {
		t.Fatal("explicitness tracking wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-zero-sum vector")
		}
	}()
	r.Set(1, []float64{1, 0, 0})
}

func TestSetWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Set(0, []float64{0, 0})
}

func TestExplicitNodes(t *testing.T) {
	r := New(4, 2)
	r.Set(1, []float64{0.1, -0.1})
	r.Set(3, []float64{-0.2, 0.2})
	nodes := r.ExplicitNodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 3 {
		t.Fatalf("ExplicitNodes = %v", nodes)
	}
}

func TestValidate(t *testing.T) {
	r := New(2, 2)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	r.Matrix().Set(0, 0, 0.5) // break the invariant through the raw matrix
	if err := r.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestScaleLemma12(t *testing.T) {
	r := New(1, 3)
	r.Set(0, []float64{2, -1, -1})
	r.Scale(0.5)
	if r.Row(0)[0] != 1 || r.Row(0)[1] != -0.5 {
		t.Fatalf("Scale wrong: %v", r.Row(0))
	}
}

func TestCenterUncenterRoundTrip(t *testing.T) {
	st := dense.NewFromRows([][]float64{{0.5, 0.3, 0.2}, {1.0 / 3, 1.0 / 3, 1.0 / 3}})
	r, err := Center(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.IsExplicit(1) {
		t.Fatal("uniform row must center to zero (implicit)")
	}
	back := r.Uncenter()
	if !back.EqualApprox(st, 1e-12) {
		t.Fatal("round trip failed")
	}
}

func TestCenterRejectsNonStochastic(t *testing.T) {
	if _, err := Center(dense.NewFromRows([][]float64{{0.5, 0.2}})); err == nil {
		t.Fatal("expected error")
	}
}

func TestLabelResidual(t *testing.T) {
	v := LabelResidual(3, 0, 1)
	want := []float64{2, -1, -1}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("LabelResidual = %v, want %v", v, want)
		}
	}
	// Always sums to zero.
	f := func(kRaw, cRaw uint8, s float64) bool {
		k := int(kRaw%6) + 2
		c := int(cRaw) % k
		if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e6 {
			s = 1
		}
		v := LabelResidual(k, c, s)
		var sum float64
		for _, x := range v {
			sum += x
		}
		return math.Abs(sum) < 1e-9*math.Max(1, math.Abs(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabelResidualBadClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LabelResidual(3, 3, 1)
}

func TestStandardizedRow(t *testing.T) {
	r := New(2, 5)
	r.Set(0, []float64{4, -1, -1, -1, -1})
	z := r.StandardizedRow(0)
	want := []float64{2, -0.5, -0.5, -0.5, -0.5}
	for i := range want {
		if math.Abs(z[i]-want[i]) > 1e-12 {
			t.Fatalf("ζ = %v, want %v", z, want)
		}
	}
}

// TestStandardizationScaleEquivalence reproduces the example from
// Section 6.1: bˆs = [4,−1,−1,−1,−1] and bˆt = 10·bˆs standardize
// identically.
func TestStandardizationScaleEquivalence(t *testing.T) {
	r := New(2, 5)
	r.Set(0, []float64{4, -1, -1, -1, -1})
	r.Set(1, []float64{40, -10, -10, -10, -10})
	a, b := r.StandardizedRow(0), r.StandardizedRow(1)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("standardization must kill scale")
		}
	}
}

func TestTopSingle(t *testing.T) {
	r := New(1, 3)
	r.Set(0, []float64{0.2, -0.1, -0.1})
	top := r.Top(0, TopTolerance)
	if len(top) != 1 || top[0] != 0 {
		t.Fatalf("Top = %v", top)
	}
}

func TestTopTies(t *testing.T) {
	r := New(1, 3)
	r.Set(0, []float64{0.1, 0.1, -0.2})
	top := r.Top(0, TopTolerance)
	if len(top) != 2 || top[0] != 0 || top[1] != 1 {
		t.Fatalf("Top = %v, want [0 1]", top)
	}
}

func TestTopAllZeroRowTiesEverything(t *testing.T) {
	r := New(1, 4)
	top := r.Top(0, TopTolerance)
	if len(top) != 4 {
		t.Fatalf("all-zero row must tie all classes, got %v", top)
	}
}

func TestTopAssignmentShape(t *testing.T) {
	r := New(3, 2)
	r.Set(1, []float64{0.3, -0.3})
	ta := r.TopAssignment()
	if len(ta) != 3 {
		t.Fatalf("len = %d", len(ta))
	}
	if len(ta[1]) != 1 || ta[1][0] != 0 {
		t.Fatalf("ta[1] = %v", ta[1])
	}
}

// TestTopAssignmentMatchesTopInTwoAllocs: the flat-backed assignment
// equals Top row by row (ties and all-zero rows included), costs two
// allocations whatever n is, and caps every row so an append to one
// never writes into the next.
func TestTopAssignmentMatchesTopInTwoAllocs(t *testing.T) {
	r, _ := Seed(300, 3, SeedConfig{Fraction: 0.3, Seed: 5})
	r.Set(0, []float64{0.1, 0.1, -0.2}) // a tie
	ta := r.TopAssignment()
	for s := range ta {
		want := r.Top(s, TopTolerance)
		if !slices.Equal(ta[s], want) {
			t.Fatalf("row %d: TopAssignment %v, Top %v", s, ta[s], want)
		}
	}
	next := slices.Clone(ta[1])
	_ = append(ta[0], 9)
	if !slices.Equal(ta[1], next) {
		t.Fatalf("appending to row 0 changed row 1: %v, was %v", ta[1], next)
	}
	if a := testing.AllocsPerRun(5, func() { r.TopAssignment() }); a != 2 {
		t.Fatalf("TopAssignment allocates %v times, want 2", a)
	}
}

func TestSeedFractionCount(t *testing.T) {
	r, nodes := Seed(1000, 3, SeedConfig{Fraction: 0.05, Seed: 1})
	if len(nodes) != 50 {
		t.Fatalf("seeded %d nodes, want 50", len(nodes))
	}
	if got := len(r.ExplicitNodes()); got != 50 {
		t.Fatalf("explicit nodes = %d, want 50", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSeedCountOverride(t *testing.T) {
	_, nodes := Seed(100, 2, SeedConfig{Fraction: 0.5, Count: 7, Seed: 2})
	if len(nodes) != 7 {
		t.Fatalf("seeded %d, want 7", len(nodes))
	}
}

func TestSeedDeterministic(t *testing.T) {
	a, an := Seed(500, 3, SeedConfig{Fraction: 0.1, Seed: 9})
	b, bn := Seed(500, 3, SeedConfig{Fraction: 0.1, Seed: 9})
	if len(an) != len(bn) {
		t.Fatal("node counts differ")
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatal("node choice differs across identical seeds")
		}
	}
	if !a.Matrix().EqualApprox(b.Matrix(), 0) {
		t.Fatal("values differ across identical seeds")
	}
}

func TestSeedValuesOnGrid(t *testing.T) {
	r, nodes := Seed(200, 3, SeedConfig{Fraction: 0.2, Seed: 4})
	for _, s := range nodes {
		row := r.Row(s)
		for c := 0; c < 2; c++ { // first k−1 entries on the 0.01 grid in [−0.1, 0.1]
			v := row[c]
			if v < -0.1-1e-12 || v > 0.1+1e-12 {
				t.Fatalf("value %v off grid", v)
			}
			scaled := v * 100
			if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
				t.Fatalf("value %v not on 0.01 grid", v)
			}
		}
	}
}

func TestSeedExtraDigits(t *testing.T) {
	r, nodes := Seed(300, 3, SeedConfig{Fraction: 0.3, Seed: 5, ExtraDigits: true})
	onFine := false
	for _, s := range nodes {
		v := r.Row(s)[0]
		scaled := v * 100
		if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
			onFine = true
		}
	}
	if !onFine {
		t.Fatal("extra-digit seeding should produce sub-0.01 values")
	}
}

func TestSeedCapsAtN(t *testing.T) {
	_, nodes := Seed(10, 2, SeedConfig{Count: 50, Seed: 1})
	if len(nodes) != 10 {
		t.Fatalf("seeded %d, want 10", len(nodes))
	}
}

func TestSeedNeverProducesImplicitRows(t *testing.T) {
	// Over many draws, zero-sum collisions must be repaired.
	r, nodes := Seed(2000, 2, SeedConfig{Fraction: 1, Seed: 6})
	if len(nodes) != 2000 {
		t.Fatal("fraction 1 must label everything")
	}
	for _, s := range nodes {
		if !r.IsExplicit(s) {
			t.Fatalf("node %d seeded but implicit", s)
		}
	}
}

func TestFromMatrixAliases(t *testing.T) {
	m := dense.New(2, 2)
	r := FromMatrix(m)
	m.Set(0, 0, 5)
	if r.Row(0)[0] != 5 {
		t.Fatal("FromMatrix must alias")
	}
}

func TestCloneIndependent(t *testing.T) {
	r := New(2, 2)
	r.Set(0, []float64{0.1, -0.1})
	c := r.Clone()
	c.Row(0)[0] = 9
	if r.Row(0)[0] != 0.1 {
		t.Fatal("Clone must not alias")
	}
}
