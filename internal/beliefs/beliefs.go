// Package beliefs manages the explicit (Eˆ) and final (Bˆ) belief
// matrices of the paper in residual (centered) form: n×k matrices whose
// rows sum to zero (Definition 3), with helpers for centering stochastic
// beliefs, the ζ-standardization of Definition 11, top-belief assignment
// with ties (Problem 1 and the precision/recall semantics of Section 7),
// and the deterministic explicit-belief seeding used by the synthetic
// experiments.
package beliefs

import (
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/errs"
	"repro/internal/xrand"
)

// Residual wraps an n×k residual belief matrix. Row s holds bˆs, the
// residual belief vector of node s; a zero row means "no explicit
// belief" for explicit matrices and "no information" for final ones.
type Residual struct {
	m *dense.Matrix
}

// New returns an all-zero n×k residual belief matrix.
func New(n, k int) *Residual {
	if k < 2 {
		panic("beliefs: need k >= 2 classes")
	}
	return &Residual{m: dense.New(n, k)}
}

// FromMatrix wraps an existing dense matrix as residual beliefs without
// copying. Rows are not validated; use Validate if the source is untrusted.
func FromMatrix(m *dense.Matrix) *Residual { return &Residual{m: m} }

// Matrix exposes the underlying dense matrix (aliased, not copied).
//
//lsbp:hotpath
func (r *Residual) Matrix() *dense.Matrix { return r.m }

// N returns the number of nodes.
//
//lsbp:hotpath
func (r *Residual) N() int { return r.m.Rows() }

// K returns the number of classes.
//
//lsbp:hotpath
func (r *Residual) K() int { return r.m.Cols() }

// Row returns node s's residual belief vector, aliasing storage.
//
//lsbp:hotpath
func (r *Residual) Row(s int) []float64 { return r.m.Row(s) }

// Clone returns a deep copy.
func (r *Residual) Clone() *Residual { return &Residual{m: r.m.Clone()} }

// Set assigns the residual vector v to node s. It panics if v does not
// sum to (numerically) zero — residual vectors always sum to 0 by
// construction (Definition 3).
func (r *Residual) Set(s int, v []float64) {
	if len(v) != r.K() {
		panic(fmt.Sprintf("beliefs: vector length %d, want %d", len(v), r.K()))
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	if math.Abs(sum) > 1e-9 {
		panic(fmt.Sprintf("beliefs: residual vector sums to %v, want 0", sum))
	}
	copy(r.m.Row(s), v)
}

// IsExplicit reports whether node s carries a non-zero residual, i.e.
// whether it is one of the paper's "nodes with explicit beliefs"
// (footnote 10: eˆ ≠ 0).
func (r *Residual) IsExplicit(s int) bool {
	for _, v := range r.m.Row(s) {
		if v != 0 {
			return true
		}
	}
	return false
}

// ExplicitNodes returns the ids of all nodes with non-zero residuals,
// in ascending order.
func (r *Residual) ExplicitNodes() []int {
	var out []int
	for s := 0; s < r.N(); s++ {
		if r.IsExplicit(s) {
			out = append(out, s)
		}
	}
	return out
}

// Validate checks that every row sums to zero within tolerance.
func (r *Residual) Validate() error {
	for s := 0; s < r.N(); s++ {
		var sum float64
		for _, v := range r.m.Row(s) {
			// NaN must be rejected explicitly: it fails every comparison,
			// so a NaN row would sail through the |sum| check below and
			// silently poison the fixpoint.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("beliefs: row %d holds %v: %w", s, v, errs.ErrNonFinite)
			}
			sum += v
		}
		if math.Abs(sum) > 1e-9 {
			return fmt.Errorf("beliefs: row %d sums to %v, want 0: %w", s, sum, errs.ErrInvalidInput)
		}
	}
	return nil
}

// Scale multiplies every entry by lambda in place and returns the
// receiver (Lemma 12's operation Eˆ ← λ·Eˆ).
func (r *Residual) Scale(lambda float64) *Residual {
	d := r.m.Data()
	for i := range d {
		d[i] *= lambda
	}
	return r
}

// Center converts a row-stochastic belief matrix (rows sum to 1) into
// residual form by subtracting 1/k, validating the input rows.
func Center(stochastic *dense.Matrix) (*Residual, error) {
	n, k := stochastic.Rows(), stochastic.Cols()
	out := New(n, k)
	for s := 0; s < n; s++ {
		var sum float64
		row := stochastic.Row(s)
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("beliefs: stochastic row %d sums to %v, want 1: %w", s, sum, errs.ErrInvalidInput)
		}
		dst := out.m.Row(s)
		for i, v := range row {
			dst[i] = v - 1/float64(k)
		}
	}
	return out, nil
}

// Uncenter returns the stochastic matrix 1/k + bˆ. Callers feeding
// standard BP should check non-negativity separately (residuals larger
// than 1/k in magnitude produce invalid probabilities).
func (r *Residual) Uncenter() *dense.Matrix {
	out := r.m.Clone()
	d := out.Data()
	offset := 1 / float64(r.K())
	for i := range d {
		d[i] += offset
	}
	return out
}

// LabelResidual returns the canonical explicit residual for "node is
// class c with strength s": s·(k−1) in class c and −s elsewhere, the
// pattern of Example 20 (eˆv1 = [2,−1,−1] is LabelResidual(3, 0, 1)).
func LabelResidual(k, c int, s float64) []float64 {
	if c < 0 || c >= k {
		panic(fmt.Sprintf("beliefs: class %d out of range k=%d", c, k))
	}
	v := make([]float64, k)
	for i := range v {
		v[i] = -s
	}
	v[c] = s * float64(k-1)
	return v
}

// StandardizedRow returns ζ(bˆs) (Definition 11).
func (r *Residual) StandardizedRow(s int) []float64 {
	return dense.Standardize(r.m.Row(s))
}

// TopTolerance is the default tie tolerance for top-belief assignment:
// classes whose belief is within this relative distance of the row
// maximum are returned together, mirroring the paper's discussion of
// ties in Section 7.
const TopTolerance = 1e-9

// TieFloor is the absolute belief magnitude below which a row is
// treated as pure floating-point noise and all classes tie. Standard
// BP's log/exp round trips leave ~1e-16 dust on nodes that received no
// information at all; without the floor that dust would be read as a
// (random) top class. The paper observes the same effect ("errors
// result from roundoff errors due to limited precision").
const TieFloor = 1e-13

// Top returns the set of classes with the highest belief for node s,
// including ties within tolerance relative to the row's magnitude
// (its ∞-norm). The relative scaling matters: far-away nodes carry
// beliefs many orders of magnitude below the explicit ones (Hˆ^g decays
// geometrically), and an absolute tie threshold would spuriously tie
// all their classes. For an all-zero row every class ties.
func (r *Residual) Top(s int, tolerance float64) []int {
	return appendTop(nil, r.m.Row(s), tolerance)
}

// topFloor returns the belief a class of row must reach to tie for the
// top: the row maximum less the tolerance slack.
func topFloor(row []float64, tolerance float64) float64 {
	max := math.Inf(-1)
	scale := 0.0
	for _, v := range row {
		if v > max {
			max = v
		}
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	return max - (tolerance*scale + TieFloor)
}

// appendTop appends the top classes of row to dst.
func appendTop(dst []int, row []float64, tolerance float64) []int {
	floor := topFloor(row, tolerance)
	for c, v := range row {
		if v >= floor {
			dst = append(dst, c)
		}
	}
	return dst
}

// TopAssignment returns Top for every node with the default tolerance.
// A counting pass sizes one flat backing array, so the whole assignment
// costs two allocations; each row is capped at its length, so appending
// to one never writes into the next.
func (r *Residual) TopAssignment() [][]int {
	n := r.N()
	total := 0
	for s := 0; s < n; s++ {
		row := r.m.Row(s)
		floor := topFloor(row, TopTolerance)
		for _, v := range row {
			if v >= floor {
				total++
			}
		}
	}
	flat := make([]int, 0, total)
	out := make([][]int, n)
	for s := range out {
		lo := len(flat)
		flat = appendTop(flat, r.m.Row(s), TopTolerance)
		out[s] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// SeedConfig controls deterministic explicit-belief seeding for the
// synthetic experiments (Section 7): a fraction of nodes receives k−1
// random residuals from the grid {−0.1, −0.09, …, 0.1}, with the last
// class getting the negative sum so rows stay centered.
type SeedConfig struct {
	// Fraction of nodes to label explicitly (e.g. 0.05 for 5%).
	Fraction float64
	// Count overrides Fraction when > 0: exact number of labeled nodes.
	Count int
	// Seed drives the deterministic PRNG.
	Seed uint64
	// ExtraDigits, when true, draws from a 10× finer grid. The paper
	// notes (end of Section 7) that extra digits remove top-belief ties.
	ExtraDigits bool
}

// SeededNodes picks which nodes get explicit beliefs under cfg, in the
// deterministic order of a seeded permutation.
func SeededNodes(n int, cfg SeedConfig) []int {
	count := cfg.Count
	if count <= 0 {
		count = int(math.Round(cfg.Fraction * float64(n)))
	}
	if count > n {
		count = n
	}
	rng := xrand.New(cfg.Seed)
	perm := rng.Perm(n)
	nodes := append([]int(nil), perm[:count]...)
	return nodes
}

// Seed generates an explicit residual belief matrix for n nodes and k
// classes under cfg and returns it with the list of seeded nodes.
func Seed(n, k int, cfg SeedConfig) (*Residual, []int) {
	nodes := SeededNodes(n, cfg)
	r := New(n, k)
	// Separate generator stream for values so that the node choice and
	// the value sequence are independently reproducible.
	rng := xrand.New(cfg.Seed ^ 0x5eedbe11ef5eed)
	grid := 21 // −0.10 … +0.10 step 0.01
	scale := 0.01
	if cfg.ExtraDigits {
		grid = 201 // −0.100 … +0.100 step 0.001
		scale = 0.001
	}
	for _, s := range nodes {
		row := r.m.Row(s)
		var sum float64
		for c := 0; c < k-1; c++ {
			v := float64(rng.Intn(grid)-(grid-1)/2) * scale
			row[c] = v
			sum += v
		}
		row[k-1] = -sum
		// Rows that came out exactly zero would make the node implicit;
		// bump the first class minimally to keep it explicit.
		if !r.IsExplicit(s) {
			row[0] = scale
			row[k-1] = -scale
		}
	}
	return r, nodes
}
