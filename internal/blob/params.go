// Package blob models the Danksharding extended blob: a square matrix of
// fixed-size cells, erasure-extended in two dimensions so that every row
// and every column can be reconstructed from any half of its cells.
//
// With the paper's target parameters the base blob is a 256x256 matrix of
// 512-byte cells (32 MB). Two-dimensional Reed-Solomon extension doubles
// both dimensions, producing a 512x512 matrix. Each cell additionally
// carries a 48-byte KZG proof (package kzg), for a total extended size of
// 512*512*(512+48) = 140 MB.
//
// The package also holds the availability mathematics of Section 3: the
// size of the maximal withheld region and the false-positive bound of
// sampling against it (availability.go).
package blob

import (
	"errors"
	"fmt"
)

// Errors returned by this package.
var (
	ErrInvalidParams = errors.New("blob: invalid parameters")
	ErrDataTooLarge  = errors.New("blob: data exceeds blob capacity")
	ErrBadCell       = errors.New("blob: cell out of range or mis-sized")
	ErrNotEnough     = errors.New("blob: not enough cells to reconstruct")
)

// Params describes the geometry of a blob and its extension. The zero
// value is not usable; use DefaultParams or TestParams.
type Params struct {
	// K is the number of data rows (and columns) of the base blob, a
	// power of two (the FFT codec needs the data positions of a line to
	// form a GF(2)-subspace). The extended matrix is N x N with N = 2*K.
	K int
	// CellBytes is the number of payload bytes per cell (512 in the
	// paper). Must be even (the GF(2^16) codec works on 16-bit words).
	CellBytes int
	// ProofBytes is the size of the per-cell KZG proof (48 in the paper).
	// Proofs ride along with cells on the wire but do not participate in
	// erasure coding.
	ProofBytes int
}

// DefaultParams returns the Danksharding target parameters used throughout
// the paper: 256x256 data cells of 512 B extended to 512x512, 48 B proofs.
func DefaultParams() Params {
	return Params{K: 256, CellBytes: 512, ProofBytes: 48}
}

// TestParams returns a scaled-down geometry (16x16 -> 32x32, 64 B cells)
// that keeps unit tests and examples fast while exercising identical code
// paths.
func TestParams() Params {
	return Params{K: 16, CellBytes: 64, ProofBytes: 48}
}

// Validate checks the parameters for internal consistency.
func (p Params) Validate() error {
	switch {
	case p.K < 1 || p.K&(p.K-1) != 0:
		return fmt.Errorf("%w: K=%d (must be a power of two)", ErrInvalidParams, p.K)
	case 2*p.K > 65536:
		return fmt.Errorf("%w: extended width %d exceeds GF(2^16) limit", ErrInvalidParams, 2*p.K)
	case p.CellBytes < 2 || p.CellBytes%2 != 0:
		return fmt.Errorf("%w: CellBytes=%d (must be positive and even)", ErrInvalidParams, p.CellBytes)
	case p.ProofBytes < 0:
		return fmt.Errorf("%w: ProofBytes=%d", ErrInvalidParams, p.ProofBytes)
	}
	return nil
}

// N returns the extended matrix width/height (2*K).
func (p Params) N() int { return 2 * p.K }

// BlobBytes returns the data capacity of the base blob in bytes.
func (p Params) BlobBytes() int { return p.K * p.K * p.CellBytes }

// CellWireBytes returns the on-the-wire size of one cell: payload plus
// proof (560 B with default parameters).
func (p Params) CellWireBytes() int { return p.CellBytes + p.ProofBytes }

// ExtendedCells returns the number of cells in the extended matrix.
func (p Params) ExtendedCells() int { return p.N() * p.N() }

// CellID addresses a cell in the extended matrix.
type CellID struct {
	Row, Col uint16
}

// Index returns the flattened index of the cell in row-major order for an
// extended matrix of width n.
func (c CellID) Index(n int) int { return int(c.Row)*n + int(c.Col) }

// CellIDFromIndex is the inverse of Index.
func CellIDFromIndex(idx, n int) CellID {
	return CellID{Row: uint16(idx / n), Col: uint16(idx % n)}
}

// String implements fmt.Stringer.
func (c CellID) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// LineKind distinguishes rows from columns in custody assignments.
type LineKind uint8

// Line kinds.
const (
	Row LineKind = iota + 1
	Col
)

// String implements fmt.Stringer.
func (k LineKind) String() string {
	switch k {
	case Row:
		return "row"
	case Col:
		return "col"
	default:
		return fmt.Sprintf("LineKind(%d)", uint8(k))
	}
}

// Line identifies one full row or column of the extended matrix. Rows and
// columns are the paper's custody units: each node is assigned 8 distinct
// rows and 8 distinct columns.
type Line struct {
	Kind  LineKind
	Index uint16
}

// String implements fmt.Stringer.
func (l Line) String() string { return fmt.Sprintf("%s%d", l.Kind, l.Index) }

// Cells enumerates the cell IDs of the line for extended width n.
func (l Line) Cells(n int) []CellID {
	out := make([]CellID, n)
	for i := 0; i < n; i++ {
		if l.Kind == Row {
			out[i] = CellID{Row: l.Index, Col: uint16(i)}
		} else {
			out[i] = CellID{Row: uint16(i), Col: l.Index}
		}
	}
	return out
}

// Contains reports whether the line passes through the given cell.
func (l Line) Contains(c CellID) bool {
	if l.Kind == Row {
		return c.Row == l.Index
	}
	return c.Col == l.Index
}
