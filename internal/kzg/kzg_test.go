package kzg

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"pandas/internal/blob"
)

func makeExtended(t testing.TB, seed int64) *blob.Extended {
	t.Helper()
	p := blob.Params{K: 4, CellBytes: 32, ProofBytes: ProofSize}
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, p.BlobBytes())
	rng.Read(data)
	e, err := blob.ExtendData(p, data, blob.ExtendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCommitDeterministic(t *testing.T) {
	e := makeExtended(t, 1)
	c1 := Commit(e)
	c2 := Commit(e)
	if c1 != c2 {
		t.Fatal("Commit not deterministic")
	}
}

func TestCommitSensitiveToData(t *testing.T) {
	e1 := makeExtended(t, 1)
	e2 := makeExtended(t, 2)
	if Commit(e1) == Commit(e2) {
		t.Fatal("different blobs share a commitment")
	}
}

func TestProveVerifyRoundTrip(t *testing.T) {
	e := makeExtended(t, 3)
	c := Commit(e)
	n := e.N()
	for r := 0; r < n; r += 3 {
		for col := 0; col < n; col += 3 {
			id := blob.CellID{Row: uint16(r), Col: uint16(col)}
			p := Prove(c, id, e.Cell(id))
			if !Verify(c, id, e.Cell(id), p) {
				t.Fatalf("Verify failed for %v", id)
			}
		}
	}
}

func TestVerifyRejectsTamperedCell(t *testing.T) {
	e := makeExtended(t, 4)
	c := Commit(e)
	id := blob.CellID{Row: 1, Col: 2}
	cell := append([]byte(nil), e.Cell(id)...)
	p := Prove(c, id, cell)
	cell[0] ^= 1
	if Verify(c, id, cell, p) {
		t.Fatal("Verify accepted tampered cell")
	}
}

func TestVerifyRejectsWrongPosition(t *testing.T) {
	e := makeExtended(t, 5)
	c := Commit(e)
	id := blob.CellID{Row: 1, Col: 2}
	p := Prove(c, id, e.Cell(id))
	wrong := blob.CellID{Row: 2, Col: 1}
	if Verify(c, wrong, e.Cell(id), p) {
		t.Fatal("Verify accepted proof at wrong position")
	}
}

func TestVerifyRejectsWrongCommitment(t *testing.T) {
	e1 := makeExtended(t, 6)
	e2 := makeExtended(t, 7)
	c1, c2 := Commit(e1), Commit(e2)
	id := blob.CellID{Row: 0, Col: 0}
	p := Prove(c1, id, e1.Cell(id))
	if Verify(c2, id, e1.Cell(id), p) {
		t.Fatal("Verify accepted proof under wrong commitment")
	}
}

func TestProveAllCoversMatrix(t *testing.T) {
	e := makeExtended(t, 8)
	c := Commit(e)
	proofs := ProveAll(e, c)
	n := e.N()
	if len(proofs) != n*n {
		t.Fatalf("len(proofs) = %d, want %d", len(proofs), n*n)
	}
	for _, idx := range []int{0, 1, n, n*n - 1} {
		id := blob.CellIDFromIndex(idx, n)
		if !Verify(c, id, e.Cell(id), proofs[idx]) {
			t.Fatalf("proof %d invalid", idx)
		}
	}
}

func TestProofSizeMatchesPaper(t *testing.T) {
	if ProofSize != 48 {
		t.Fatalf("ProofSize = %d, want 48", ProofSize)
	}
	var p Proof
	if len(p) != 48 {
		t.Fatalf("len(Proof) = %d", len(p))
	}
}

// TestMerkleRootEdgeCases covers the fold under Committer.Root: a
// single row digest and an odd count (the promotion path).
func TestMerkleRootEdgeCases(t *testing.T) {
	root := func(leaves ...[32]byte) [32]byte { return merkleFold(leaves, sha256.New()) }
	leaf := [32]byte{1}
	if root(leaf) != leaf {
		t.Fatal("single leaf should be its own root")
	}
	r3 := root([32]byte{1}, [32]byte{2}, [32]byte{3})
	if r3 != root([32]byte{1}, [32]byte{2}, [32]byte{3}) {
		t.Fatal("odd-leaf root unstable")
	}
	if r3 == root([32]byte{1}, [32]byte{2}, [32]byte{4}) {
		t.Fatal("root insensitive to last leaf")
	}
}

func BenchmarkProve(b *testing.B) {
	e := makeExtended(b, 9)
	c := Commit(e)
	id := blob.CellID{Row: 1, Col: 1}
	cell := e.Cell(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prove(c, id, cell)
	}
}

func BenchmarkVerify(b *testing.B) {
	e := makeExtended(b, 10)
	c := Commit(e)
	id := blob.CellID{Row: 1, Col: 1}
	cell := e.Cell(id)
	p := Prove(c, id, cell)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(c, id, cell, p) {
			b.Fatal("verify failed")
		}
	}
}

// TestVerifyBatchMatchesVerify: VerifyBatch must agree with per-cell
// Verify on every cell and report the valid count, with corrupted
// cells flagged individually.
func TestVerifyBatchMatchesVerify(t *testing.T) {
	e := makeExtended(t, 11)
	c := Commit(e)
	var ids []blob.CellID
	var cells [][]byte
	var proofs []Proof
	for r := 0; r < 4; r++ {
		for col := 0; col < 4; col++ {
			id := blob.CellID{Row: uint16(r), Col: uint16(col)}
			cell := e.Cell(id)
			ids = append(ids, id)
			cells = append(cells, cell)
			proofs = append(proofs, Prove(c, id, cell))
		}
	}
	ok := make([]bool, len(ids))
	if valid := VerifyBatch(c, ids, cells, proofs, ok); valid != len(ids) {
		t.Fatalf("valid = %d, want %d", valid, len(ids))
	}
	for i := range ok {
		if !ok[i] {
			t.Fatalf("cell %d rejected in all-good batch", i)
		}
	}
	// Corrupt two entries: one proof, one payload.
	proofs[3][0] ^= 0xff
	cells[9] = append([]byte(nil), cells[9]...)
	cells[9][0] ^= 1
	if valid := VerifyBatch(c, ids, cells, proofs, ok); valid != len(ids)-2 {
		t.Fatalf("valid = %d, want %d", valid, len(ids)-2)
	}
	for i := range ok {
		want := i != 3 && i != 9
		if ok[i] != want {
			t.Fatalf("cell %d: ok=%v, want %v", i, ok[i], want)
		}
		if got := Verify(c, ids[i], cells[i], proofs[i]); got != ok[i] {
			t.Fatalf("cell %d: batch=%v disagrees with Verify=%v", i, ok[i], got)
		}
	}
}

func BenchmarkVerifyBatch64(b *testing.B) {
	e := makeExtended(b, 12)
	c := Commit(e)
	const n = 64
	ids := make([]blob.CellID, n)
	cells := make([][]byte, n)
	proofs := make([]Proof, n)
	for i := 0; i < n; i++ {
		ids[i] = blob.CellID{Row: uint16(i / 8), Col: uint16(i % 8)}
		cells[i] = e.Cell(ids[i])
		proofs[i] = Prove(c, ids[i], cells[i])
	}
	ok := make([]bool, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if VerifyBatch(c, ids, cells, proofs, ok) != n {
			b.Fatal("batch failed")
		}
	}
}

// ProveAll is the reference form of Committer.ProveAll: proofs for every
// cell of the extended matrix in row-major order, each cell re-digested
// on one pooled scratch.
func ProveAll(e *blob.Extended, c Commitment) []Proof {
	n := e.N()
	out := make([]Proof, n*n)
	s := scratchPool.Get().(*scratch)
	for r := 0; r < n; r++ {
		for col := 0; col < n; col++ {
			id := blob.CellID{Row: uint16(r), Col: uint16(col)}
			out[id.Index(n)] = s.proveInto(c, id, e.Cell(id))
		}
	}
	scratchPool.Put(s)
	return out
}
