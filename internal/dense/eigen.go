package dense

import "math"

// SymEigenvalues returns the eigenvalues (unsorted) of the symmetric
// matrix m by cyclic Jacobi rotations. Only the upper triangle of m is
// read; m itself is left untouched. It panics if m is not square.
func (m *Matrix) SymEigenvalues() []float64 {
	if m.rows != m.cols {
		panic("dense: SymEigenvalues needs a square matrix")
	}
	n := m.rows
	a, v := make([]float64, n*n), make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a[i*n+j], a[j*n+i] = m.data[i*n+j], m.data[i*n+j]
		}
	}
	JacobiEigen(a, v, n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = a[i*n+i]
	}
	return vals
}

// JacobiEigen diagonalizes the symmetric matrix held in caller-owned
// row-major n×n storage a, so repeated small solves allocate nothing:
// on return the diagonal of a holds the eigenvalues, its off-diagonal
// is negligible, and row j of v is the unit eigenvector of a[j*n+j].
// v is overwritten.
func JacobiEigen(a, v []float64, n int) {
	for i := range v[:n*n] {
		v[i] = 0
	}
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	var scale float64
	for _, x := range a[:n*n] {
		scale += x * x
	}
	for sweep := 0; sweep < 64; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i*n+j] * a[i*n+j]
			}
		}
		if off <= 1e-30*scale {
			return
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if apq == 0 {
					continue
				}
				// Rotation J (Golub & Van Loan, sym.schur2) with
				// (JᵀAJ)(p,q) = 0.
				tau := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				t := 1 / (math.Abs(tau) + math.Sqrt(1+tau*tau))
				if tau < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// A ← JᵀAJ touches rows and columns p and q only; A
				// stays symmetric, so each row entry is mirrored.
				for k := 0; k < n; k++ {
					if k == p || k == q {
						continue
					}
					akp, akq := a[p*n+k], a[q*n+k]
					a[p*n+k], a[q*n+k] = c*akp-s*akq, s*akp+c*akq
					a[k*n+p], a[k*n+q] = a[p*n+k], a[q*n+k]
				}
				a[p*n+p] -= t * apq
				a[q*n+q] += t * apq
				a[p*n+q], a[q*n+p] = 0, 0
				vp, vq := v[p*n:p*n+n], v[q*n:q*n+n] // Vᵀ ← JᵀVᵀ
				for k := range vp {
					vp[k], vq[k] = c*vp[k]-s*vq[k], s*vp[k]+c*vq[k]
				}
			}
		}
	}
}
