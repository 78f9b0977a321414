// Validated adoption of externally produced CSR arrays — the sparse
// half of the durable snapshot format. The on-disk snapshot stores the
// three CSR arrays as raw checksummed sections; after the CRCs verify,
// the loader still cannot trust the *structure* (a checksum protects
// against bit rot, not against a foreign or truncated file that
// checksums correctly), so NewCSRFromRaw re-validates every CSR
// invariant before any kernel iterates the arrays. The adopted slices
// are NOT copied: the mmap-backed loader aliases the mapping directly,
// which is what makes a snapshot cold start "map + verify" instead of
// "rebuild".
package sparse

import "fmt"

// validateAdopted checks the full CSR invariant set over adopted
// arrays: shape, row-pointer monotonicity, strictly ascending in-range
// columns per row, and consistent lengths. O(nnz).
func validateAdopted(rows, cols int, rowPtr, colIdx []int32, val []float64) error {
	if rows < 0 || cols < 0 || rows > MaxIndex || cols > MaxIndex {
		return fmt.Errorf("sparse: adopt: dimension %dx%d outside [0, %d]", rows, cols, MaxIndex)
	}
	if len(rowPtr) != rows+1 {
		return fmt.Errorf("sparse: adopt: rowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	if rowPtr[0] != 0 {
		return fmt.Errorf("sparse: adopt: rowPtr[0] = %d, want 0", rowPtr[0])
	}
	if len(colIdx) != len(val) {
		return fmt.Errorf("sparse: adopt: %d column indices for %d values", len(colIdx), len(val))
	}
	if int(rowPtr[rows]) != len(val) {
		return fmt.Errorf("sparse: adopt: rowPtr[%d] = %d, want nnz %d", rows, rowPtr[rows], len(val))
	}
	// Monotonicity first: with rowPtr[0] = 0 and rowPtr[rows] = nnz it
	// bounds every row span inside the column array, so the column scan
	// below cannot index past it.
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return fmt.Errorf("sparse: adopt: rowPtr decreases at row %d (%d > %d)", i, rowPtr[i], rowPtr[i+1])
		}
	}
	for i := 0; i < rows; i++ {
		prev := -1
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			j := int(colIdx[p])
			if j < 0 || j >= cols {
				return fmt.Errorf("sparse: adopt: row %d column %d out of range [0,%d)", i, j, cols)
			}
			if j <= prev {
				return fmt.Errorf("sparse: adopt: row %d columns not strictly ascending (%d after %d)", i, j, prev)
			}
			prev = j
		}
	}
	return nil
}

// NewCSRFromRaw adopts prebuilt CSR arrays without copying, after
// validating every structural invariant. The caller must not modify the
// slices afterwards; they may be read-only (mmap-backed).
func NewCSRFromRaw(rows, cols int, rowPtr, colIdx []int32, val []float64) (*CSR, error) {
	if err := validateAdopted(rows, cols, rowPtr, colIdx, val); err != nil {
		return nil, err
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}
