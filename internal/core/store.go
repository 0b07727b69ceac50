package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
// (presence and the node's two planning marks, see lineState) live in
// one shared slab ([]uint64) and off-custody samples in a short
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
	// pay holds the payloads in real mode; nil in metadata mode, where a
	// store must stay a few hundred bytes.
	pay *payloads

	commitment    kzg.Commitment
	hasCommitment bool
	verify        bool
	// verifyCalls counts the proof checks made since Reset: the work
	// verify-once exists to avoid, counted where it is done.
	verifyCalls int

	missScr []int // TryReconstruct's MissingOnLine buffer
}

// payloads is the real-mode half of a Store: what the presence bits say is
// held, by position rather than by hash. All of it is kept across Reset.
type payloads struct {
	// held has one slot per position of every custody line, line i's at
	// held[i*n:(i+1)*n]. A cell on a custody row lives in the row's slot
	// (position = its column) whether or not its column is custody too;
	// any other covered cell lives in its column's slot. A slot means
	// something only while the matching presence bit is set.
	held []heldCell
	// extra is parallel to Store.extras.
	extra []heldCell
	// arena is the memory Borrowed payloads are copied into on insert. A
	// block that fills up is replaced by one twice the size and stays
	// alive through the slots pointing into it until Reset clears them;
	// Reset rewinds the newest block, so after two slots of similar
	// traffic a node's copies land in one block it already owns.
	arena []byte
	// restored is the memory TryReconstruct decodes into, one exact-size
	// window per restored cell. A line is decoded once, when it first holds
	// half its cells, and then lacks at most K, so K cells per custody line
	// is all a slot can restore: the slab is allocated at the first decode
	// and only rewound by Reset.
	restored []byte

	lineScr  [][]byte    // TryReconstruct's view of one line
	reconScr []wire.Cell // TryReconstruct's result
}

// heldCell is one stored payload.
type heldCell struct {
	data  []byte
	proof kzg.Proof
	// verified records that proof was checked against the commitment when
	// the cell was stored, or computed from it. Only such a copy can vouch
	// for a byte-identical duplicate (see Store.Add); a cell stored before
	// the commitment was known cannot.
	verified bool
}

// restoreSlot returns an empty window of the restored slab with room for
// one cell of bp; lines, the number of custody lines, sizes the slab.
func (p *payloads) restoreSlot(bp blob.Params, lines int) []byte {
	if room := lines * bp.K * bp.CellBytes; cap(p.restored) < room {
		p.restored = make([]byte, 0, room)
	}
	off := len(p.restored)
	p.restored = p.restored[:off+bp.CellBytes]
	return p.restored[off:off:len(p.restored)]
}

// keep copies a borrowed payload into the arena.
func (p *payloads) keep(b []byte) []byte {
	if len(p.arena)+len(b) > cap(p.arena) {
		p.arena = make([]byte, 0, max(2*cap(p.arena), 64*len(b)))
	}
	off := len(p.arena)
	p.arena = append(p.arena, b...)
	return p.arena[off:len(p.arena):len(p.arena)]
}

// lineState is one custody line: its presence bits and count, and two
// marks the node plans with, indexed like bits — the positions the
// builder's CB map says were seeded somewhere (cbSeeded) and the cells of
// the node's own CB parcels (own).
type lineState struct {
	bits, cbSeeded, own []uint64
	count               int
}

func (ls *lineState) has(pos int) bool { return hasBit(ls.bits, pos) }

// hasBit reports whether position pos is set in a line bitset.
func hasBit(b []uint64, pos int) bool { return b[pos/64]&(1<<uint(pos%64)) != 0 }

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
// index slices, and payload slots of the previous slot. A node keeps one
// Store for its whole lifetime instead of allocating ~20 objects per
// slot; at 100k nodes that is the difference between a steady heap and
// gigabytes of per-slot garbage.
func (s *Store) Reset(a assign.Assignment, real, verify bool) {
	s.real = real
	s.verify = verify && real
	s.commitment = kzg.Commitment{}
	s.hasCommitment = false
	s.verifyCalls = 0
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
	need := 3 * nLines * words
	if cap(s.slab) < need {
		s.slab = make([]uint64, need)
	} else {
		s.slab = s.slab[:need]
		clear(s.slab)
	}
	for i := range s.lines {
		b := s.slab[3*i*words : 3*(i+1)*words : 3*(i+1)*words]
		s.lines[i] = lineState{bits: b[:words:words], cbSeeded: b[words : 2*words : 2*words], own: b[2*words:]}
	}

	if !real {
		s.pay = nil
		return
	}
	if s.pay == nil {
		s.pay = &payloads{}
	}
	p := s.pay
	// Stale entries are never read, but they would pin last slot's payloads.
	clear(p.held[:cap(p.held)])
	clear(p.extra[:cap(p.extra)])
	clear(p.lineScr[:cap(p.lineScr)])
	clear(p.reconScr[:cap(p.reconScr)])
	if slots := nLines * s.n; cap(p.held) < slots {
		p.held = make([]heldCell, slots)
	} else {
		p.held = p.held[:slots]
	}
	p.extra = p.extra[:0]
	p.arena = p.arena[:0]
	p.restored = p.restored[:0]
}

// SetCommitment records the blob commitment used for proof verification
// and for proving reconstructed cells. Cells checked against an earlier,
// different commitment stay held but no longer count as verified.
func (s *Store) SetCommitment(c kzg.Commitment) {
	if s.hasCommitment && c != s.commitment && s.pay != nil {
		for i := range s.pay.held {
			s.pay.held[i].verified = false
		}
		for i := range s.pay.extra {
			s.pay.extra[i].verified = false
		}
	}
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

// open reports whether the tracked line at position i holds some but not
// all of its cells — the lines worth a reconstruction attempt.
func (s *Store) open(i int) bool {
	return s.lines[i].count > 0 && s.lines[i].count < s.n
}

// lineStateOf returns the tracked state of a line, or nil.
func (s *Store) lineStateOf(l blob.Line) *lineState {
	if i := s.lineIndex(l); i >= 0 {
		return &s.lines[i]
	}
	return nil
}

// inRange reports whether the cell lies inside the extended matrix. IDs
// arrive from the network (a Query names whatever its sender likes), so
// every lookup checks before it indexes a bitmap or a slot array.
func (s *Store) inRange(id blob.CellID) bool {
	return int(id.Row) < s.n && int(id.Col) < s.n
}

// extraFind returns the position of an off-custody cell in extras, or the
// position it would be inserted at, and whether it is there.
func (s *Store) extraFind(id blob.CellID) (int, bool) {
	idx := uint32(id.Index(s.n))
	i := sort.Search(len(s.extras), func(i int) bool { return s.extras[i] >= idx })
	return i, i < len(s.extras) && s.extras[i] == idx
}

// place says where a cell is recorded: on custody line row and/or col
// (indices into lines, -1 = not tracked), else among the extras at
// position extra (the insertion point while the cell is absent).
type place struct {
	row, col, extra int
	held            bool
}

// locate finds an in-range cell's place.
func (s *Store) locate(id blob.CellID) place {
	pl := place{row: s.rowIndex(id.Row), col: s.colIndex(id.Col)}
	switch {
	case pl.row >= 0:
		pl.held = s.lines[pl.row].has(int(id.Col))
	case pl.col >= 0:
		pl.held = s.lines[pl.col].has(int(id.Row))
	default:
		pl.extra, pl.held = s.extraFind(id)
	}
	return pl
}

// slot returns the payload slot of a cell at pl (real mode only).
func (s *Store) slot(id blob.CellID, pl place) *heldCell {
	switch {
	case pl.row >= 0:
		return &s.pay.held[pl.row*s.n+int(id.Col)]
	case pl.col >= 0:
		return &s.pay.held[pl.col*s.n+int(id.Row)]
	}
	return &s.pay.extra[pl.extra]
}

// Covered reports whether the cell lies on one of the tracked custody
// lines. A cell outside the matrix lies on none.
func (s *Store) Covered(id blob.CellID) bool {
	return s.inRange(id) && (s.rowIndex(id.Row) >= 0 || s.colIndex(id.Col) >= 0)
}

// Has reports whether the cell is present (on a custody line or as an
// extra sample). A cell outside the matrix never is.
func (s *Store) Has(id blob.CellID) bool {
	return s.inRange(id) && s.locate(id).held
}

// Add records a received cell. It returns false when the cell was already
// present (a duplicate).
//
// In verifying mode, once the commitment is known, a cell is stored only
// if its proof checks, and it is checked once: an arrival that equals,
// byte for byte in payload and proof, a held copy that was itself
// verified is a duplicate without another hash. A held copy that differs,
// or one stored before the commitment was known, vouches for nothing:
// the arrival then takes the full check, so a corrupted duplicate is
// still ErrBadProof.
func (s *Store) Add(c wire.Cell) (bool, error) { return s.add(&c) }

func (s *Store) add(c *wire.Cell) (bool, error) {
	if !s.inRange(c.ID) {
		return false, fmt.Errorf("%w: cell %v out of range", blob.ErrBadCell, c.ID)
	}
	// A tainted cell is the simulator's stand-in for a corrupted payload:
	// the proof check a real deployment always performs would fail, so
	// reject it in both payload modes. Real-payload corruption is also
	// caught below by the actual KZG verification.
	if c.Tainted {
		return false, fmt.Errorf("%w: cell %v (tainted)", ErrBadProof, c.ID)
	}
	pl := s.locate(c.ID)
	check := s.verify && s.hasCommitment
	if check {
		known := false
		if pl.held {
			h := s.slot(c.ID, pl)
			known = h.verified && h.proof == c.Proof && bytes.Equal(h.data, c.Data)
		}
		if !known {
			s.verifyCalls++
			if !kzg.Verify(s.commitment, c.ID, c.Data, c.Proof) {
				return false, fmt.Errorf("%w: cell %v", ErrBadProof, c.ID)
			}
		}
	}
	if pl.held {
		return false, nil
	}
	s.insert(c, pl, check)
	return true, nil
}

// insert records an absent cell at pl without checking it; verified says
// whether its proof is known to match the commitment. A Borrowed payload
// is copied here, and only here: a cell that turns out to be a duplicate
// or a reject never costs a copy.
func (s *Store) insert(c *wire.Cell, pl place, verified bool) {
	if pl.row >= 0 {
		s.lines[pl.row].set(int(c.ID.Col))
	}
	if pl.col >= 0 {
		s.lines[pl.col].set(int(c.ID.Row))
	}
	if pl.row < 0 && pl.col < 0 {
		s.extras = slices.Insert(s.extras, pl.extra, uint32(c.ID.Index(s.n)))
		if s.real {
			s.pay.extra = slices.Insert(s.pay.extra, pl.extra, heldCell{})
		}
	}
	if !s.real {
		return
	}
	data := c.Data
	if c.Borrowed {
		data = s.pay.keep(data)
	}
	h := s.slot(c.ID, pl)
	h.data, h.proof, h.verified = data, c.Proof, verified
}

// Peek returns the stored cell without copying the payload. In metadata
// mode the returned cell has a nil payload but is valid for forwarding
// (sizes are charged in full).
//
// Aliasing contract: in real-payload mode the returned Cell's Data
// slice aliases the store's internal storage. Callers must treat it as
// read-only and must not retain it across StartSlot (which resets the
// store in place); a caller that needs a private copy — e.g. to cache
// past the slot boundary — must copy Data itself. Mutating the returned
// payload corrupts custody state for every later reader (see
// TestStorePeekAliasing).
func (s *Store) Peek(id blob.CellID) (wire.Cell, bool) {
	if !s.inRange(id) {
		return wire.Cell{}, false
	}
	pl := s.locate(id)
	if !pl.held {
		return wire.Cell{}, false
	}
	c := wire.Cell{ID: id}
	if s.real {
		h := s.slot(id, pl)
		c.Data, c.Proof = h.data, h.proof
	}
	return c, true
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
// produces actual payloads, straight into memory the store owns, and
// fresh proofs, and the returned slice is the store's own, valid until
// the next call; in metadata mode presence bits are simply filled in, and
// the returned slice is a fresh one (tryReconstructInto fills a buffer).
//
// What is restored here is stored without a proof check: its proof was
// computed from the commitment a line above, and checking it would
// compute it again and compare the two.
func (s *Store) TryReconstruct(l blob.Line) ([]wire.Cell, error) {
	var buf []wire.Cell
	return s.tryReconstructInto(l, &buf)
}

// tryReconstructInto is TryReconstruct with the metadata-mode result
// built in *buf, which keeps the grown buffer: a metadata store has no
// room of its own for half a line of cells (about 20 KB at the paper's
// geometry), so the caller lends it. Real mode leaves buf alone.
func (s *Store) tryReconstructInto(l blob.Line, buf *[]wire.Cell) ([]wire.Cell, error) {
	li := s.lineIndex(l)
	if li < 0 {
		return nil, nil
	}
	ls := &s.lines[li]
	if ls.count == s.n || ls.count < s.n/2 {
		return nil, nil
	}
	s.missScr = s.MissingOnLine(l, s.missScr)
	missing := s.missScr
	var newCells []wire.Cell
	if s.real {
		p := s.pay
		if cap(p.lineScr) < s.n {
			p.lineScr = make([][]byte, s.n)
		}
		full := p.lineScr[:s.n]
		clear(full)
		for pos := range full {
			if ls.has(pos) {
				id := cellOnLine(l, pos)
				// Capped at its length: the decoder writes into an empty
				// entry with room, and a held cell, however malformed, must
				// not pass for one.
				d := s.slot(id, s.locate(id)).data
				full[pos] = d[:len(d):len(d)]
			}
		}
		mark := len(p.restored)
		for _, pos := range missing {
			full[pos] = p.restoreSlot(s.params, len(s.lines))
		}
		if err := blob.ReconstructLine(s.params, full); err != nil {
			p.restored = p.restored[:mark]
			return nil, fmt.Errorf("core: reconstruct %v: %w", l, err)
		}
		newCells = p.reconScr[:0]
		for _, pos := range missing {
			id := cellOnLine(l, pos)
			c := wire.Cell{ID: id, Data: full[pos]}
			if s.hasCommitment {
				c.Proof = kzg.Prove(s.commitment, id, full[pos])
			}
			newCells = append(newCells, c)
		}
		p.reconScr = newCells
	} else {
		newCells = (*buf)[:0]
		for _, pos := range missing {
			newCells = append(newCells, wire.Cell{ID: cellOnLine(l, pos)})
		}
		*buf = newCells
	}
	for i := range newCells {
		c := &newCells[i]
		s.insert(c, s.locate(c.ID), s.hasCommitment)
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
