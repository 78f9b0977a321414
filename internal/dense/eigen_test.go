package dense

import (
	"math"
	"sort"
	"testing"
)

// checkEigen diagonalizes m with JacobiEigen, verifies m = Σ λⱼ·vⱼvⱼᵀ
// with orthonormal rows vⱼ, checks SymEigenvalues agrees, and returns
// the eigenvalues in ascending order.
func checkEigen(t *testing.T, m *Matrix, tol float64) []float64 {
	t.Helper()
	n := m.Rows()
	a, v := append([]float64(nil), m.Data()...), make([]float64, n*n)
	JacobiEigen(a, v, n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = a[i*n+i]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var dot, rec float64
			for k := 0; k < n; k++ {
				dot += v[i*n+k] * v[j*n+k]
				rec += vals[k] * v[k*n+i] * v[k*n+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > tol {
				t.Fatalf("eigenvectors %d·%d = %v, want %v", i, j, dot, want)
			}
			if math.Abs(rec-m.At(i, j)) > tol {
				t.Fatalf("reconstruction (%d,%d) = %v, want %v", i, j, rec, m.At(i, j))
			}
		}
	}
	got := m.SymEigenvalues()
	sort.Float64s(vals)
	sort.Float64s(got)
	for i := range vals {
		if math.Abs(got[i]-vals[i]) > tol {
			t.Fatalf("SymEigenvalues %v, JacobiEigen %v", got, vals)
		}
	}
	return vals
}

func TestSymEigenKnown(t *testing.T) {
	m := NewFromRows([][]float64{{2, 1}, {1, 2}})
	vals := checkEigen(t, m, 1e-14)
	if math.Abs(vals[0]-1) > 1e-14 || math.Abs(vals[1]-3) > 1e-14 {
		t.Fatalf("eigenvalues %v, want [1 3]", vals)
	}
	if m.At(0, 1) != 1 || m.At(1, 1) != 2 {
		t.Fatal("SymEigenvalues modified its receiver")
	}
}

func TestSymEigenRandom(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 20} {
		m := New(n, n)
		x := 0.37
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				x = math.Mod(x*97.31+0.113, 1)
				m.Set(i, j, x-0.5)
				m.Set(j, i, x-0.5)
			}
		}
		if vals := checkEigen(t, m, 1e-12); len(vals) != n {
			t.Fatalf("n=%d: %d eigenvalues", n, len(vals))
		}
	}
}

func TestSymEigenRepeated(t *testing.T) {
	// The residual homophily coupling: eigenvalue 0 on the all-ones
	// vector and a (k−1)-fold eigenvalue s elsewhere.
	m := NewFromRows([][]float64{
		{2.0 / 3, -1.0 / 3, -1.0 / 3},
		{-1.0 / 3, 2.0 / 3, -1.0 / 3},
		{-1.0 / 3, -1.0 / 3, 2.0 / 3},
	})
	vals := checkEigen(t, m, 1e-14)
	if math.Abs(vals[0]) > 1e-15 || math.Abs(vals[1]-1) > 1e-14 || math.Abs(vals[2]-1) > 1e-14 {
		t.Fatalf("eigenvalues %v, want [0 1 1]", vals)
	}
}

func TestSymEigenNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).SymEigenvalues()
}
