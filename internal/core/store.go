package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/kzg"
	"pandas/internal/wire"
)

// Store errors.
var (
	ErrBadProof = errors.New("core: cell proof verification failed")
)

// Store is a node's per-slot custody state: presence bitmaps for its
// assigned rows and columns (plus any sample cells outside them), and —
// in real-payload mode — the cell bytes and proofs themselves.
//
// The store is deliberately sparse: a node never tracks the full 512x512
// matrix, only its ~16 custody lines and 73 samples. All line bitmaps
// live in one shared slab ([]uint64) and off-custody samples in a short
// sorted index slice, so metadata-mode custody state is a handful of
// allocations per node and a few hundred bytes — the budget that lets a
// single process hold 100k+ nodes. Line lookup is a linear scan over at
// most a handful of entries, which profiles faster than any map for
// these sizes and allocates nothing.
type Store struct {
	params blob.Params
	n      int
	real   bool

	rowIdx []uint16
	colIdx []uint16
	// lines holds row states first (parallel to rowIdx), then column
	// states (parallel to colIdx); every bitmap is a view into slab.
	lines []lineState
	slab  []uint64

	// extras holds cells outside every custody line (random samples) as
	// sorted flat cell indices.
	extras []uint32
	// data holds payloads in real mode, keyed by flat cell index.
	data map[int]wire.Cell

	commitment    kzg.Commitment
	hasCommitment bool
	verify        bool

	missScr []int // TryReconstruct's MissingOnLine buffer
}

type lineState struct {
	bits  []uint64
	count int
}

func (ls *lineState) has(pos int) bool {
	return ls.bits[pos/64]&(1<<uint(pos%64)) != 0
}

func (ls *lineState) set(pos int) bool {
	w, b := pos/64, uint(pos%64)
	if ls.bits[w]&(1<<b) != 0 {
		return false
	}
	ls.bits[w] |= 1 << b
	ls.count++
	return true
}

// NewStore creates the custody store for one slot. The assignment fixes
// which lines are tracked; real selects payload mode; verify enables
// per-cell proof checks against the commitment (real mode only).
func NewStore(p blob.Params, a assign.Assignment, real, verify bool) *Store {
	s := &Store{params: p, n: p.N()}
	s.Reset(a, real, verify)
	return s
}

// Reset reinitializes the store for a new slot, reusing the bitmap slab,
// index slices, and payload map of the previous slot. A node keeps one
// Store for its whole lifetime instead of allocating ~20 objects per
// slot; at 100k nodes that is the difference between a steady heap and
// gigabytes of per-slot garbage.
func (s *Store) Reset(a assign.Assignment, real, verify bool) {
	s.real = real
	s.verify = verify && real
	s.commitment = kzg.Commitment{}
	s.hasCommitment = false
	if real {
		if s.data == nil {
			s.data = make(map[int]wire.Cell)
		} else {
			clear(s.data)
		}
	} else {
		s.data = nil
	}
	s.extras = s.extras[:0]
	s.rowIdx = append(s.rowIdx[:0], a.Rows...)
	s.colIdx = append(s.colIdx[:0], a.Cols...)

	words := (s.n + 63) / 64
	nLines := len(s.rowIdx) + len(s.colIdx)
	if cap(s.lines) < nLines {
		s.lines = make([]lineState, nLines)
	} else {
		s.lines = s.lines[:nLines]
	}
	need := nLines * words
	if cap(s.slab) < need {
		s.slab = make([]uint64, need)
	} else {
		s.slab = s.slab[:need]
		for i := range s.slab {
			s.slab[i] = 0
		}
	}
	for i := range s.lines {
		s.lines[i] = lineState{bits: s.slab[i*words : (i+1)*words]}
	}
}

// SetCommitment records the blob commitment used for proof verification
// and for proving reconstructed cells.
func (s *Store) SetCommitment(c kzg.Commitment) {
	s.commitment = c
	s.hasCommitment = true
}

// Commitment returns the recorded commitment, if any.
func (s *Store) Commitment() (kzg.Commitment, bool) {
	return s.commitment, s.hasCommitment
}

// rowIndex returns the position of a tracked row in s.lines, or -1.
func (s *Store) rowIndex(r uint16) int {
	for i, x := range s.rowIdx {
		if x == r {
			return i
		}
	}
	return -1
}

// colIndex returns the position of a tracked column in s.lines, or -1.
func (s *Store) colIndex(c uint16) int {
	for i, x := range s.colIdx {
		if x == c {
			return len(s.rowIdx) + i
		}
	}
	return -1
}

// lineIndex returns the position of a tracked line in s.lines, or -1.
// Positions follow the assignment: rows in ascending order, then columns.
func (s *Store) lineIndex(l blob.Line) int {
	switch l.Kind {
	case blob.Row:
		return s.rowIndex(l.Index)
	case blob.Col:
		return s.colIndex(l.Index)
	}
	return -1
}

// lineAt is the inverse of lineIndex.
func (s *Store) lineAt(i int) blob.Line {
	if i < len(s.rowIdx) {
		return blob.Line{Kind: blob.Row, Index: s.rowIdx[i]}
	}
	return blob.Line{Kind: blob.Col, Index: s.colIdx[i-len(s.rowIdx)]}
}

// rowState returns the tracked state of a row, or nil.
func (s *Store) rowState(r uint16) *lineState {
	if i := s.rowIndex(r); i >= 0 {
		return &s.lines[i]
	}
	return nil
}

// colState returns the tracked state of a column, or nil.
func (s *Store) colState(c uint16) *lineState {
	if i := s.colIndex(c); i >= 0 {
		return &s.lines[i]
	}
	return nil
}

// open reports whether the tracked line at position i holds some but not
// all of its cells — the lines worth a reconstruction attempt.
func (s *Store) open(i int) bool {
	return s.lines[i].count > 0 && s.lines[i].count < s.n
}

// lineStateOf returns the tracked state of a line, or nil.
func (s *Store) lineStateOf(l blob.Line) *lineState {
	if l.Kind == blob.Row {
		return s.rowState(l.Index)
	}
	return s.colState(l.Index)
}

// extraHas reports whether the cell is recorded as an off-custody extra.
func (s *Store) extraHas(id blob.CellID) bool {
	idx := uint32(id.Index(s.n))
	i := sort.Search(len(s.extras), func(i int) bool { return s.extras[i] >= idx })
	return i < len(s.extras) && s.extras[i] == idx
}

// extraAdd records an off-custody extra, keeping the index sorted. It
// returns false for duplicates.
func (s *Store) extraAdd(id blob.CellID) bool {
	idx := uint32(id.Index(s.n))
	i := sort.Search(len(s.extras), func(i int) bool { return s.extras[i] >= idx })
	if i < len(s.extras) && s.extras[i] == idx {
		return false
	}
	s.extras = append(s.extras, 0)
	copy(s.extras[i+1:], s.extras[i:])
	s.extras[i] = idx
	return true
}

// Covered reports whether the cell lies on one of the tracked custody
// lines.
func (s *Store) Covered(id blob.CellID) bool {
	return s.rowState(id.Row) != nil || s.colState(id.Col) != nil
}

// Has reports whether the cell is present (on a custody line or as an
// extra sample).
func (s *Store) Has(id blob.CellID) bool {
	if ls := s.rowState(id.Row); ls != nil {
		return ls.has(int(id.Col))
	}
	if ls := s.colState(id.Col); ls != nil {
		return ls.has(int(id.Row))
	}
	return s.extraHas(id)
}

// Add records a received cell. It returns false when the cell was already
// present (a duplicate). In verifying mode the proof is checked first and
// ErrBadProof returned on mismatch.
func (s *Store) Add(c wire.Cell) (bool, error) {
	if int(c.ID.Row) >= s.n || int(c.ID.Col) >= s.n {
		return false, fmt.Errorf("%w: cell %v out of range", blob.ErrBadCell, c.ID)
	}
	// A tainted cell is the simulator's stand-in for a corrupted payload:
	// the proof check a real deployment always performs would fail, so
	// reject it in both payload modes. Real-payload corruption is also
	// caught below by the actual KZG verification.
	if c.Tainted {
		return false, fmt.Errorf("%w: cell %v (tainted)", ErrBadProof, c.ID)
	}
	if s.verify && s.hasCommitment {
		if !kzg.Verify(s.commitment, c.ID, c.Data, c.Proof) {
			return false, fmt.Errorf("%w: cell %v", ErrBadProof, c.ID)
		}
	}
	added, covered := false, false
	if ls := s.rowState(c.ID.Row); ls != nil {
		covered = true
		if ls.set(int(c.ID.Col)) {
			added = true
		}
	}
	if ls := s.colState(c.ID.Col); ls != nil {
		covered = true
		if ls.set(int(c.ID.Row)) {
			added = true
		}
	}
	if !covered && s.extraAdd(c.ID) {
		added = true
	}
	if added && s.real {
		s.data[c.ID.Index(s.n)] = c
	}
	return added, nil
}

// Get returns the stored cell. In metadata mode the returned cell has a
// nil payload but is valid for forwarding (sizes are charged in full).
func (s *Store) Get(id blob.CellID) (wire.Cell, bool) {
	if !s.Has(id) {
		return wire.Cell{}, false
	}
	if s.real {
		c, ok := s.data[id.Index(s.n)]
		return c, ok
	}
	return wire.Cell{ID: id}, true
}

// Peek is the read-only hot-path lookup used by the sampling gateway:
// it returns the stored cell WITHOUT copying the payload and with a
// single map probe in real mode (Get pays a custody-line scan first).
//
// Aliasing contract: in real-payload mode the returned Cell's Data
// slice aliases the store's internal storage. Callers must treat it as
// read-only and must not retain it across StartSlot (which resets the
// store in place); a caller that needs a private copy — e.g. to cache
// past the slot boundary — must copy Data itself. Mutating the returned
// payload corrupts custody state for every later reader (see
// TestStorePeekAliasing). In metadata mode the returned cell has a nil
// payload, exactly like Get.
func (s *Store) Peek(id blob.CellID) (wire.Cell, bool) {
	if s.real {
		c, ok := s.data[id.Index(s.n)]
		return c, ok
	}
	if !s.Has(id) {
		return wire.Cell{}, false
	}
	return wire.Cell{ID: id}, true
}

// LineCount returns the number of present cells on a tracked line
// (zero for untracked lines).
func (s *Store) LineCount(l blob.Line) int {
	if ls := s.lineStateOf(l); ls != nil {
		return ls.count
	}
	return 0
}

// LineComplete reports whether a tracked line is fully present.
func (s *Store) LineComplete(l blob.Line) bool {
	return s.LineCount(l) == s.n
}

// MissingOnLine returns the absent positions (0..n-1) of a tracked line,
// written over buf (which may be nil) so that a caller asking line after
// line allocates once.
func (s *Store) MissingOnLine(l blob.Line, buf []int) []int {
	out := buf[:0]
	ls := s.lineStateOf(l)
	if ls == nil || ls.count == s.n {
		return out
	}
	for w, word := range ls.bits {
		inv := ^word
		for inv != 0 {
			b := bits.TrailingZeros64(inv)
			pos := w*64 + b
			if pos >= s.n {
				break
			}
			out = append(out, pos)
			inv &^= 1 << uint(b)
		}
	}
	return out
}

// TryReconstruct completes a tracked line if it holds at least half of
// its cells. It returns the cells newly materialized (nil if the line was
// complete or below the threshold). In real mode the Reed-Solomon decoder
// produces actual payloads and fresh proofs; in metadata mode presence
// bits are simply filled in.
func (s *Store) TryReconstruct(l blob.Line) ([]wire.Cell, error) {
	ls := s.lineStateOf(l)
	if ls == nil || ls.count == s.n || ls.count < s.n/2 {
		return nil, nil
	}
	s.missScr = s.MissingOnLine(l, s.missScr)
	missing := s.missScr
	var newCells []wire.Cell
	if s.real {
		full := make([][]byte, s.n)
		for pos := range full {
			if !ls.has(pos) {
				continue
			}
			id := cellOnLine(l, pos)
			c, ok := s.data[id.Index(s.n)]
			if !ok {
				return nil, fmt.Errorf("core: line %v position %d marked present but payload missing", l, pos)
			}
			full[pos] = c.Data
		}
		if err := blob.ReconstructLine(s.params, full); err != nil {
			return nil, fmt.Errorf("core: reconstruct %v: %w", l, err)
		}
		for _, pos := range missing {
			id := cellOnLine(l, pos)
			c := wire.Cell{ID: id, Data: full[pos]}
			if s.hasCommitment {
				c.Proof = kzg.Prove(s.commitment, id, full[pos])
			}
			newCells = append(newCells, c)
		}
	} else {
		for _, pos := range missing {
			newCells = append(newCells, wire.Cell{ID: cellOnLine(l, pos)})
		}
	}
	for _, c := range newCells {
		if _, err := s.Add(c); err != nil {
			return nil, err
		}
	}
	return newCells, nil
}

// cellOnLine returns the CellID at a position along a line.
func cellOnLine(l blob.Line, pos int) blob.CellID {
	if l.Kind == blob.Row {
		return blob.CellID{Row: l.Index, Col: uint16(pos)}
	}
	return blob.CellID{Row: uint16(pos), Col: l.Index}
}

// CompleteLines returns how many tracked lines are fully present.
func (s *Store) CompleteLines() int {
	done := 0
	for i := range s.lines {
		if s.lines[i].count == s.n {
			done++
		}
	}
	return done
}

// TrackedLines returns the number of custody lines.
func (s *Store) TrackedLines() int { return len(s.lines) }
