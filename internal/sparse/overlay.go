// The mutable delta overlay of the dynamic-graph serving plane. A
// prepared CSR is immutable — every kernel engine of a live snapshot
// reads it concurrently — so topology updates cannot touch it in place.
// Instead an Overlay accumulates per-cell deltas (weight additions and
// tombstones) next to the frozen base, and Merge materializes the
// updated matrix by a single merged-row iteration: each output row is
// the two-pointer merge of the base row (already column-sorted) with
// the overlay's touched cells, so untouched rows are bulk copies and
// the whole merge costs O(nnz + delta) with no COO rebuild and no
// re-sort of unaffected structure. The overlay keeps accumulating
// across merges until a compaction rebuild Rebases it onto a freshly
// laid-out matrix.
package sparse

import (
	"fmt"
	"sort"
)

// overlayCell is the delta state of one touched (row, col) cell:
// merged value = (tomb ? 0 : base) + add. A tombstone discards the
// base entry; additions after a tombstone accumulate from zero, so a
// removed-then-re-added edge carries exactly its new weight.
type overlayCell struct {
	add  float64
	tomb bool
}

// Overlay is a mutable set of cell deltas over an immutable base CSR.
// It is not safe for concurrent use; the dynamic solver serializes all
// mutations (and Merge) under its update lock while readers keep
// solving on the previously merged snapshots.
type Overlay struct {
	base  *CSR
	rows  map[int]map[int]*overlayCell
	cells int // distinct touched (row, col) cells since the last Rebase
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *CSR) *Overlay {
	if base == nil {
		panic("sparse: nil overlay base")
	}
	return &Overlay{base: base, rows: make(map[int]map[int]*overlayCell)}
}

// DeltaNNZ returns the number of distinct cells touched since the last
// Rebase — the "overlay nnz" the compaction threshold compares against
// the base's stored-entry count.
func (o *Overlay) DeltaNNZ() int { return o.cells }

// cell returns (creating if needed) the delta cell for (i, j).
func (o *Overlay) cell(i, j int) *overlayCell {
	if i < 0 || i >= o.base.rows || j < 0 || j >= o.base.cols {
		panic(fmt.Sprintf("sparse: overlay cell (%d,%d) out of range %dx%d", i, j, o.base.rows, o.base.cols))
	}
	row := o.rows[i]
	if row == nil {
		row = make(map[int]*overlayCell)
		o.rows[i] = row
	}
	c := row[j]
	if c == nil {
		c = &overlayCell{}
		row[j] = c
		o.cells++
	}
	return c
}

// Add accumulates w onto cell (i, j) — the single-direction half of an
// edge insertion (callers add both (i, j) and (j, i) for undirected
// graphs). Parallel additions sum in arrival order, matching how a
// fresh COO build would accumulate them.
func (o *Overlay) Add(i, j int, w float64) {
	o.cell(i, j).add += w
}

// Remove tombstones cell (i, j), discarding the base entry and any
// accumulated additions. It reports whether the merged cell currently
// held a nonzero value; removing an absent entry is a no-op that
// touches nothing (so idempotent delete streams do not inflate the
// compaction counter).
func (o *Overlay) Remove(i, j int) bool {
	if i < 0 || i >= o.base.rows || j < 0 || j >= o.base.cols {
		panic(fmt.Sprintf("sparse: overlay cell (%d,%d) out of range %dx%d", i, j, o.base.rows, o.base.cols))
	}
	if c := o.rows[i][j]; c != nil {
		had := c.add != 0 || (!c.tomb && o.base.At(i, j) != 0)
		if !had {
			return false
		}
		c.tomb = true
		c.add = 0
		return true
	}
	if o.base.At(i, j) == 0 {
		return false
	}
	c := o.cell(i, j)
	c.tomb = true
	return true
}

// Merge materializes base + deltas as a fresh CSR sharing no storage
// with the base (live snapshots keep reading the base untouched).
// Untouched rows are bulk copies; touched rows are two-pointer merges
// of the sorted base row with the sorted overlay cells. Cells whose
// merged value is exactly zero are dropped, preserving the CSR
// invariant that no explicit zeros are stored. It panics when the
// merged matrix would store more than MaxIndex entries.
func (o *Overlay) Merge() *CSR {
	b := o.base
	if len(b.val)+o.cells > MaxIndex {
		panic(fmt.Sprintf("sparse: overlay merge exceeds %d stored entries", MaxIndex))
	}
	out := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int32, b.rows+1),
		colIdx: make([]int32, 0, len(b.val)+o.cells),
		val:    make([]float64, 0, len(b.val)+o.cells),
	}
	var ocols []int // per-row sorted overlay columns, reused
	for i := 0; i < b.rows; i++ {
		lo, hi := b.rowPtr[i], b.rowPtr[i+1]
		orow := o.rows[i]
		if len(orow) == 0 {
			out.colIdx = append(out.colIdx, b.colIdx[lo:hi]...)
			out.val = append(out.val, b.val[lo:hi]...)
			out.rowPtr[i+1] = int32(len(out.val))
			continue
		}
		ocols = ocols[:0]
		for j := range orow {
			ocols = append(ocols, j)
		}
		sort.Ints(ocols)
		p, q := lo, 0
		for p < hi || q < len(ocols) {
			switch {
			case q == len(ocols) || (p < hi && int(b.colIdx[p]) < ocols[q]):
				out.colIdx = append(out.colIdx, b.colIdx[p])
				out.val = append(out.val, b.val[p])
				p++
			case p == hi || ocols[q] < int(b.colIdx[p]):
				c := orow[ocols[q]]
				if v := c.add; v != 0 {
					out.colIdx = append(out.colIdx, int32(ocols[q]))
					out.val = append(out.val, v)
				}
				q++
			default: // same column: combine base with the delta cell
				c := orow[ocols[q]]
				v := c.add
				if !c.tomb {
					v += b.val[p]
				}
				if v != 0 {
					out.colIdx = append(out.colIdx, b.colIdx[p])
					out.val = append(out.val, v)
				}
				p++
				q++
			}
		}
		out.rowPtr[i+1] = int32(len(out.val))
	}
	return out
}

// Rebase clears every delta and installs a new base — the compaction
// step: after the dynamic solver re-lays out the merged graph, the
// overlay restarts empty over the fresh layout.
func (o *Overlay) Rebase(base *CSR) {
	if base == nil {
		panic("sparse: nil overlay base")
	}
	o.base = base
	o.rows = make(map[int]map[int]*overlayCell)
	o.cells = 0
}
