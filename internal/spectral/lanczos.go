package spectral

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/xrand"
)

// Lanczos computes the two extreme eigenpairs (algebraically smallest
// and largest) of a symmetric operator: the Lanczos process with full
// reorthogonalization on a capped basis, thick-restarted (Wu & Simon)
// from the Ritz vectors nearest both ends of the spectrum when the
// basis fills. One value serves a whole sequence of related operators,
// such as the steps of a parameter search: its buffers are reused
// across calls, and a call after the first starts from the previous
// call's Ritz vectors unless Reset intervened. A warm start carries no
// random component, so it cannot find an eigenvector its start vector
// lacks; a search should confirm its final answer from a cold start.
// The zero value is ready to use.
type Lanczos struct {
	// MaxIter caps the operator applications of one call (default 5000).
	MaxIter int
	// Matvecs counts the operator applications over all calls.
	Matvecs int

	rng        *xrand.Rand
	v          [][]float64 // orthonormal basis
	w, row     []float64
	proj       []float64 // Vᵀ·M·V, m×m: tridiagonal plus a restart arrow
	t, z       []float64 // its eigenvalues (diagonal) and eigenvectors (rows)
	order      []int
	xmin, xmax []float64 // Ritz vectors of the last call
	warm       bool      // xmin and xmax seed the next call
}

// lanczosBasis caps the Krylov basis before a thick restart, and
// lanczosTol is the Ritz residual ‖Mx − θx‖ both pairs must reach,
// relative to max(|θmin|, |θmax|).
const (
	lanczosBasis = 32
	lanczosTol   = 1e-10
)

// Reset makes the next call start from a random vector.
func (l *Lanczos) Reset() { l.warm = false }

// Extremes returns the smallest and largest eigenvalue of the symmetric
// operator op; MinVec and MaxVec hold the unit eigenvectors until the
// next call. When the Ritz residuals miss their tolerance within MaxIter
// operator applications, the last Ritz values are returned with an error
// wrapping errs.ErrNotConverged.
func (l *Lanczos) Extremes(op Operator) (lo, hi float64, err error) {
	n := op.Dim()
	if n == 0 {
		return 0, 0, nil
	}
	maxIter := l.MaxIter
	if maxIter <= 0 {
		maxIter = 5000
	}
	m := min(lanczosBasis, n)
	if len(l.w) != n {
		l.rng = xrand.New(1)
		l.v, l.warm = nil, false
		l.w, l.xmin, l.xmax = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	if len(l.proj) < m*m {
		l.proj, l.t, l.z = make([]float64, m*m), make([]float64, m*m), make([]float64, m*m)
		l.row, l.order = make([]float64, m), make([]int, m)
	}
	if len(l.v) == 0 {
		l.v = append(l.v, make([]float64, n))
	}

	// Start vector: the previous Ritz pair, or noise.
	v0 := l.v[0]
	if l.warm {
		dense.AxpyInto(v0, 1, l.xmin, l.xmax)
	} else {
		for i := range v0 {
			v0[i] = l.rng.Float64() - 0.5
		}
	}
	l.warm = true
	dense.ScaleInto(v0, 1/dense.Norm2(v0), v0)

	proj := l.proj[:m*m]
	clear(proj)
	for used, j := 0, 0; ; j++ {
		op.Apply(l.w, l.v[j])
		used++
		l.Matvecs++
		proj[j*m+j] = dense.Dot(l.w, l.v[j])
		// The three-term recurrence (plus the restart arrow), then full
		// reorthogonalization: a Gram–Schmidt pass over the whole basis,
		// repeated once when cancellation shrank w by more than 1/√2
		// (Kahan–Parlett: twice is enough).
		for i, vi := range l.v[:j+1] {
			if c := proj[i*m+j]; c != 0 {
				dense.AxpyInto(l.w, -c, vi, l.w)
			}
		}
		norm := dense.Norm2(l.w)
		var beta float64
		for pass := 0; pass < 2; pass++ {
			for _, vi := range l.v[:j+1] {
				dense.AxpyInto(l.w, -dense.Dot(l.w, vi), vi, l.w)
			}
			beta = dense.Norm2(l.w)
			if beta >= 0.7*norm {
				break
			}
			norm = beta
		}

		k := j + 1
		imin, imax := l.ritz(k, m)
		lo, hi = l.t[imin*k+imin], l.t[imax*k+imax]
		scale := math.Max(math.Abs(lo), math.Abs(hi))
		res := beta * math.Max(math.Abs(l.z[imin*k+j]), math.Abs(l.z[imax*k+j]))
		done := res <= lanczosTol*scale || beta == 0 || k == n // k == n: V spans the space
		if !done && k < m && used < maxIter {
			if len(l.v) == k {
				l.v = append(l.v, make([]float64, n))
			}
			dense.ScaleInto(l.v[k], 1/beta, l.w)
			proj[j*m+k], proj[k*m+j] = beta, beta
			continue
		}
		l.ritzVector(l.xmin, k, imin)
		l.ritzVector(l.xmax, k, imax)
		if done {
			return lo, hi, nil
		}
		if used >= maxIter {
			return lo, hi, fmt.Errorf("spectral: Lanczos Ritz residual %.3g above %.3g after %d operator applications: %w",
				res, lanczosTol*scale, used, errs.ErrNotConverged)
		}
		j = l.restart(k, m, beta) - 1
	}
}

// restart compresses a full basis of k vectors to the Ritz vectors of
// the k/4 smallest and k/4 largest Ritz values, followed by the current
// residual direction w/β, and rewrites the projected matrix to match:
// the kept Ritz values on the diagonal and the arrow β·z(i, k−1)
// coupling each to the residual direction. It returns the index of the
// residual direction, where the Lanczos process continues.
func (l *Lanczos) restart(k, m int, beta float64) int {
	p := max(k/4, 1)
	order := l.order[:k]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return l.t[order[a]*k+order[a]] < l.t[order[b]*k+order[b]] })
	keep := append(order[:p:p], order[k-p:]...)
	// V ← V·Y in place, one coordinate at a time.
	row := l.row[:k]
	for r := range l.v[0] {
		for s := range row {
			row[s] = l.v[s][r]
		}
		for i, idx := range keep {
			var x float64
			for s, zs := range l.z[idx*k : idx*k+k] {
				x += zs * row[s]
			}
			l.v[i][r] = x
		}
	}
	kept := len(keep)
	dense.ScaleInto(l.v[kept], 1/beta, l.w)
	proj := l.proj[:m*m]
	clear(proj)
	for i, idx := range keep {
		proj[i*m+i] = l.t[idx*k+idx]
		proj[i*m+kept] = beta * l.z[idx*k+k-1]
		proj[kept*m+i] = proj[i*m+kept]
	}
	return kept
}

// MinVec returns the unit eigenvector of the last call's smallest
// eigenvalue. The slice is reused by the next call.
func (l *Lanczos) MinVec() []float64 { return l.xmin }

// MaxVec returns the unit eigenvector of the last call's largest
// eigenvalue. The slice is reused by the next call.
func (l *Lanczos) MaxVec() []float64 { return l.xmax }

// ritz diagonalizes the leading k×k block of the projected matrix
// (stride m) into l.t (eigenvalues on the diagonal) and l.z
// (eigenvectors as rows), returning the indices of the smallest and
// largest eigenvalue.
func (l *Lanczos) ritz(k, m int) (imin, imax int) {
	t := l.t[:k*k]
	for i := 0; i < k; i++ {
		copy(t[i*k:i*k+k], l.proj[i*m:i*m+k])
	}
	dense.JacobiEigen(t, l.z[:k*k], k)
	for i := 1; i < k; i++ {
		if t[i*k+i] < t[imin*k+imin] {
			imin = i
		}
		if t[i*k+i] > t[imax*k+imax] {
			imax = i
		}
	}
	return imin, imax
}

// ritzVector writes the Ritz vector Σᵢ z(row, i)·vᵢ into dst.
func (l *Lanczos) ritzVector(dst []float64, k, row int) {
	clear(dst)
	for i, vi := range l.v[:k] {
		dense.AxpyInto(dst, l.z[row*k+i], vi, dst)
	}
}
