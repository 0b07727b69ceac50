package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/kzg"
	"pandas/internal/wire"
)

func testAssignment() assign.Assignment {
	return assign.Assignment{Rows: []uint16{1, 5}, Cols: []uint16{2, 9}}
}

func testStoreParams() blob.Params {
	return blob.Params{K: 8, CellBytes: 32, ProofBytes: kzg.ProofSize}
}

func TestStoreAddHasCoverage(t *testing.T) {
	s := NewStore(testStoreParams(), testAssignment(), false, false)
	onRow := blob.CellID{Row: 1, Col: 7}
	onCol := blob.CellID{Row: 14, Col: 2}
	offBoth := blob.CellID{Row: 0, Col: 0}

	if !s.Covered(onRow) || !s.Covered(onCol) || s.Covered(offBoth) {
		t.Fatal("Covered wrong")
	}
	for _, id := range []blob.CellID{onRow, onCol, offBoth} {
		if s.Has(id) {
			t.Fatal("cell present before Add")
		}
		added, err := s.Add(wire.Cell{ID: id})
		if err != nil || !added {
			t.Fatalf("Add(%v) = %v, %v", id, added, err)
		}
		if !s.Has(id) {
			t.Fatalf("Has(%v) false after Add", id)
		}
		added, err = s.Add(wire.Cell{ID: id})
		if err != nil || added {
			t.Fatal("duplicate Add should return false")
		}
	}
	if s.LineCount(blob.Line{Kind: blob.Row, Index: 1}) != 1 {
		t.Fatal("row count wrong")
	}
	if s.LineCount(blob.Line{Kind: blob.Col, Index: 2}) != 1 {
		t.Fatal("col count wrong")
	}
	if s.LineCount(blob.Line{Kind: blob.Row, Index: 0}) != 0 {
		t.Fatal("untracked line should count 0")
	}
}

func TestStoreIntersectionCellCountsOnBothLines(t *testing.T) {
	s := NewStore(testStoreParams(), testAssignment(), false, false)
	// (1, 2) lies on tracked row 1 AND tracked col 2.
	s.Add(wire.Cell{ID: blob.CellID{Row: 1, Col: 2}})
	if s.LineCount(blob.Line{Kind: blob.Row, Index: 1}) != 1 ||
		s.LineCount(blob.Line{Kind: blob.Col, Index: 2}) != 1 {
		t.Fatal("intersection cell must count on both lines")
	}
}

func TestStoreRejectsOutOfRange(t *testing.T) {
	s := NewStore(testStoreParams(), testAssignment(), false, false)
	if _, err := s.Add(wire.Cell{ID: blob.CellID{Row: 99, Col: 0}}); !errors.Is(err, blob.ErrBadCell) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreMissingOnLine(t *testing.T) {
	p := testStoreParams()
	s := NewStore(p, testAssignment(), false, false)
	l := blob.Line{Kind: blob.Row, Index: 1}
	for c := 0; c < 5; c++ {
		s.Add(wire.Cell{ID: blob.CellID{Row: 1, Col: uint16(c)}})
	}
	missing := s.MissingOnLine(l, nil)
	if len(missing) != p.N()-5 {
		t.Fatalf("missing = %d, want %d", len(missing), p.N()-5)
	}
	if missing[0] != 5 {
		t.Fatalf("first missing = %d", missing[0])
	}
	if len(s.MissingOnLine(blob.Line{Kind: blob.Row, Index: 0}, nil)) != 0 {
		t.Fatal("untracked line should report nothing")
	}
	// A caller-supplied buffer is overwritten, not appended to, and reused
	// when it is large enough.
	buf := make([]int, 3, p.N())
	again := s.MissingOnLine(l, buf)
	if len(again) != len(missing) || again[0] != 5 || &again[0] != &buf[0] {
		t.Fatalf("buffered call returned %d positions starting %d (reused=%v)", len(again), again[0], &again[0] == &buf[0])
	}
}

func TestStoreMetadataReconstruct(t *testing.T) {
	p := testStoreParams()
	s := NewStore(p, testAssignment(), false, false)
	l := blob.Line{Kind: blob.Row, Index: 5}
	// Below half: no reconstruction.
	for c := 0; c < p.K-1; c++ {
		s.Add(wire.Cell{ID: blob.CellID{Row: 5, Col: uint16(c)}})
	}
	cells, err := s.TryReconstruct(l)
	if err != nil || cells != nil {
		t.Fatalf("below-half reconstruct = %v, %v", cells, err)
	}
	// At half: completes.
	s.Add(wire.Cell{ID: blob.CellID{Row: 5, Col: uint16(p.K - 1)}})
	cells, err = s.TryReconstruct(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != p.N()-p.K {
		t.Fatalf("reconstructed %d cells, want %d", len(cells), p.N()-p.K)
	}
	if !s.LineComplete(l) {
		t.Fatal("line not complete after reconstruct")
	}
	// Idempotent.
	cells, err = s.TryReconstruct(l)
	if err != nil || cells != nil {
		t.Fatal("second reconstruct should be a no-op")
	}
}

func TestStoreRealReconstructProducesRealBytes(t *testing.T) {
	p := testStoreParams()
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, p.BlobBytes())
	rng.Read(data)
	base, err := blob.NewBlob(p, data)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := blob.Extend(base)
	if err != nil {
		t.Fatal(err)
	}
	com := kzg.Commit(ext)

	a := assign.Assignment{Rows: []uint16{3}, Cols: nil}
	s := NewStore(p, a, true, true)
	s.SetCommitment(com)
	l := blob.Line{Kind: blob.Row, Index: 3}
	// Feed the first half of row 3 with valid proofs.
	for c := 0; c < p.K; c++ {
		id := blob.CellID{Row: 3, Col: uint16(c)}
		cell := wire.Cell{ID: id, Data: ext.Cell(id), Proof: kzg.Prove(com, id, ext.Cell(id))}
		if _, err := s.Add(cell); err != nil {
			t.Fatal(err)
		}
	}
	newCells, err := s.TryReconstruct(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(newCells) != p.N()-p.K {
		t.Fatalf("reconstructed %d", len(newCells))
	}
	// Reconstructed payloads must match the builder's extension and
	// carry valid proofs.
	for _, c := range newCells {
		if !bytes.Equal(c.Data, ext.Cell(c.ID)) {
			t.Fatalf("cell %v payload mismatch", c.ID)
		}
		if !kzg.Verify(com, c.ID, c.Data, c.Proof) {
			t.Fatalf("cell %v proof invalid", c.ID)
		}
	}
	// Served cells round-trip through Get.
	got, ok := s.Peek(blob.CellID{Row: 3, Col: uint16(p.N() - 1)})
	if !ok || got.Data == nil {
		t.Fatal("Get after reconstruct failed")
	}
}

// TestStoreReconstructAllocatesNothingWarm: a restored cell is decoded
// straight into the store's slab, which Reset rewinds, so restoring and
// proving half a line on a warm store allocates nothing (a fresh slice
// per restored cell before).
func TestStoreReconstructAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds the decoder's workspace under the race detector")
	}
	p := blob.Params{K: 32, CellBytes: 512, ProofBytes: kzg.ProofSize}
	data := make([]byte, p.BlobBytes())
	rand.New(rand.NewSource(2)).Read(data)
	base, err := blob.NewBlob(p, data)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := blob.Extend(base)
	if err != nil {
		t.Fatal(err)
	}
	com := kzg.Commit(ext)
	a := assign.Assignment{Rows: []uint16{3, 40}, Cols: []uint16{7}}
	s := NewStore(p, a, true, false)
	lines := a.Lines()
	var half []wire.Cell
	for _, l := range lines {
		for pos := 0; pos < p.N(); pos += 2 {
			id := cellOnLine(l, pos)
			half = append(half, wire.Cell{ID: id, Data: ext.Cell(id), Proof: kzg.Prove(com, id, ext.Cell(id))})
		}
	}
	restore := func() {
		s.Reset(a, true, false)
		s.SetCommitment(com)
		for _, c := range half {
			if _, err := s.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range lines {
			if _, err := s.TryReconstruct(l); err != nil {
				t.Fatal(err)
			}
		}
		if s.CompleteLines() != len(lines) {
			t.Fatalf("%d of %d lines complete", s.CompleteLines(), len(lines))
		}
	}
	restore()
	if allocs := testing.AllocsPerRun(20, restore); allocs != 0 {
		t.Fatalf("a warm reconstruction allocated %v times", allocs)
	}
	for _, l := range lines {
		for pos := 0; pos < p.N(); pos++ {
			id := cellOnLine(l, pos)
			if got, _ := s.Peek(id); !bytes.Equal(got.Data, ext.Cell(id)) || !kzg.Verify(com, id, got.Data, got.Proof) {
				t.Fatalf("cell %v wrong after the warm reconstructions", id)
			}
		}
	}
}

func TestStoreVerifyRejectsBadProof(t *testing.T) {
	p := testStoreParams()
	s := NewStore(p, testAssignment(), true, true)
	s.SetCommitment(kzg.Commitment{1})
	c := wire.Cell{ID: blob.CellID{Row: 1, Col: 0}, Data: make([]byte, p.CellBytes)}
	// Proof is zero: must fail verification.
	if _, err := s.Add(c); !errors.Is(err, ErrBadProof) {
		t.Fatalf("err = %v, want ErrBadProof", err)
	}
	if s.Has(c.ID) {
		t.Fatal("bad cell stored")
	}
}

func TestStoreExtrasForSamples(t *testing.T) {
	s := NewStore(testStoreParams(), testAssignment(), false, false)
	off := blob.CellID{Row: 12, Col: 13}
	if s.Covered(off) {
		t.Fatal("cell unexpectedly covered")
	}
	added, err := s.Add(wire.Cell{ID: off})
	if err != nil || !added {
		t.Fatal("extra cell add failed")
	}
	if !s.Has(off) {
		t.Fatal("extra cell not present")
	}
	if _, ok := s.Peek(off); !ok {
		t.Fatal("extra cell not gettable")
	}
}

func TestStoreCompleteLines(t *testing.T) {
	p := testStoreParams()
	a := assign.Assignment{Rows: []uint16{0}, Cols: []uint16{0}}
	s := NewStore(p, a, false, false)
	if s.TrackedLines() != 2 || s.CompleteLines() != 0 {
		t.Fatal("initial line counts wrong")
	}
	for i := 0; i < p.N(); i++ {
		s.Add(wire.Cell{ID: blob.CellID{Row: 0, Col: uint16(i)}})
		s.Add(wire.Cell{ID: blob.CellID{Row: uint16(i), Col: 0}})
	}
	if s.CompleteLines() != 2 {
		t.Fatalf("CompleteLines = %d", s.CompleteLines())
	}
}

// TestStorePeekAliasing pins Peek's zero-copy contract (documented on
// the method): in real mode the returned Data slice ALIASES the store's
// internal payload — no copy is made — for a cell that arrived, one that
// was copied in from a borrowed buffer, an off-custody extra and one that
// was reconstructed alike. The gateway's hot path depends on the no-copy
// guarantee; this test is the tripwire if Peek ever starts copying.
func TestStorePeekAliasing(t *testing.T) {
	p := testStoreParams()
	s := NewStore(p, testAssignment(), true, false)
	id := blob.CellID{Row: 1, Col: 3}
	payload := make([]byte, p.CellBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if _, err := s.Add(wire.Cell{ID: id, Data: payload}); err != nil {
		t.Fatal(err)
	}

	got, ok := s.Peek(id)
	if !ok {
		t.Fatal("Peek missed a stored cell")
	}
	if !bytes.Equal(got.Data, payload) {
		t.Fatal("Peek returned wrong payload")
	}
	// Same backing array: element 0 of the returned slice and of a
	// second Peek must share an address (zero-copy).
	again, _ := s.Peek(id)
	if &got.Data[0] != &again.Data[0] {
		t.Fatal("Peek copied the payload; contract is zero-copy aliasing")
	}
	// The same holds wherever the cell lives: a custody column's slot, the
	// extras, the arena a borrowed payload was copied into, and the
	// decoder's output for a reconstructed line.
	for _, c := range []wire.Cell{
		{ID: blob.CellID{Row: 14, Col: 2}, Data: payload},
		{ID: blob.CellID{Row: 12, Col: 13}, Data: payload},
		{ID: blob.CellID{Row: 1, Col: 5}, Data: payload, Borrowed: true},
	} {
		if _, err := s.Add(c); err != nil {
			t.Fatal(err)
		}
		one, ok1 := s.Peek(c.ID)
		two, ok2 := s.Peek(c.ID)
		if !ok1 || !ok2 || !bytes.Equal(one.Data, payload) || &one.Data[0] != &two.Data[0] {
			t.Fatalf("cell %v: Peek is not a stable view of the stored payload", c.ID)
		}
	}
	row := blob.Line{Kind: blob.Row, Index: 5}
	for pos := 0; pos < p.K; pos++ {
		if _, err := s.Add(wire.Cell{ID: cellOnLine(row, pos), Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := s.TryReconstruct(row)
	if err != nil || len(restored) != p.N()-p.K {
		t.Fatalf("TryReconstruct = %d cells, %v", len(restored), err)
	}
	for _, c := range restored {
		if held, ok := s.Peek(c.ID); !ok || &held.Data[0] != &c.Data[0] {
			t.Fatalf("cell %v: Peek does not alias the reconstructed payload", c.ID)
		}
	}

	// Absent cell and metadata-only mode still behave.
	if _, ok := s.Peek(blob.CellID{Row: 1, Col: 4}); ok {
		t.Fatal("Peek invented an absent cell")
	}
	meta := NewStore(p, testAssignment(), false, false)
	if _, err := meta.Add(wire.Cell{ID: id}); err != nil {
		t.Fatal(err)
	}
	c, ok := meta.Peek(id)
	if !ok || c.Data != nil {
		t.Fatal("metadata-mode Peek should report presence with no payload")
	}
}
