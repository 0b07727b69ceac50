// Package kzg provides a simulated Kate-Zaverucha-Goldberg commitment
// scheme for blob cells.
//
// SUBSTITUTION NOTE (see DESIGN.md §4): the real Danksharding design uses
// KZG polynomial commitments over BLS12-381, which require pairing
// cryptography outside the Go standard library. PANDAS's contribution is a
// networking protocol; what it needs from KZG is only
//
//  1. a small constant-size commitment registered in the block (KZGC),
//  2. a 48-byte per-cell proof carried with every cell (KZGP), and
//  3. a cheap per-cell verification check on receipt.
//
// This package preserves all three with a hash-based construction built
// around one SHA-256 pass per cell payload:
//
//   - every cell gets a cell digest
//     d = SHA-256(0x02 || row || col || payload);
//   - each row gets a row digest SHA-256(0x03 || row || cell digests),
//     and the blob Commitment is a Merkle root over the row digests;
//   - the per-cell Proof is SHA-256(commitment || d[:16]) followed by
//     the first 16 bytes of d — verifiable by anyone holding the
//     commitment and the cell, since verification recomputes d from the
//     payload. Binding to the digest's 48-byte prefix keeps the binding
//     hash input inside one SHA-256 block (one compression per proof).
//
// The cell digest is computed once and shared by the commitment and the
// proof, so the builder hashes each payload byte exactly once; the
// Committer type below streams this work row by row. Unlike real KZG, a
// proof here can only be PRODUCED by a party holding the commitment and
// the cell (the builder), which matches the paper's rational-builder
// model: the builder never sends incorrect data because detection
// forfeits its reward. Wire sizes are identical to the paper's (48-byte
// proofs, 32-byte commitments), so all bandwidth results carry over
// unchanged.
package kzg

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"

	"pandas/internal/blob"
)

// ProofSize is the per-cell proof size in bytes, matching real KZG.
const ProofSize = 48

// CommitmentSize is the commitment size in bytes.
const CommitmentSize = 32

// Domain-separation prefixes.
const (
	domainCell = 0x02
	domainRow  = 0x03
)

// Commitment binds an entire extended blob, standing in for the KZG
// commitment (KZGC) registered in the blob-carrying transaction.
type Commitment [CommitmentSize]byte

// Proof binds one cell to a Commitment, standing in for the per-cell KZG
// proof (KZGP).
type Proof [ProofSize]byte

// Committer accumulates per-cell digests row by row and derives the
// commitment and all proofs from them, hashing each payload byte exactly
// once. All arenas are retained across Reset, so a builder reusing one
// Committer per slot commits and proves with zero steady-state
// allocation. HashRow/Root are not safe for concurrent use (feed rows
// from one goroutine at a time); ProveAll runs its own worker pool over
// the finished digest arena.
type Committer struct {
	n       int
	digests [][32]byte // n*n cell digests, row-major
	rows    [][32]byte // n row digests
	fold    [][32]byte // Merkle scratch (Root must not consume rows)
	h       hash.Hash
	hdr     [8]byte // staged header bytes (see scratch.buf)
	cellBuf []byte  // header||payload staging for one-shot cell digests
}

// NewCommitter returns a Committer sized for an n x n extended matrix.
func NewCommitter(n int) *Committer {
	cm := &Committer{h: sha256.New()}
	cm.Reset(n)
	return cm
}

// Reset prepares the Committer for a fresh n x n matrix, reusing its
// arenas when the geometry allows.
func (cm *Committer) Reset(n int) {
	cm.n = n
	if cap(cm.digests) < n*n {
		cm.digests = make([][32]byte, n*n)
	}
	cm.digests = cm.digests[:n*n]
	if cap(cm.rows) < n {
		cm.rows = make([][32]byte, n)
		cm.fold = make([][32]byte, n)
	}
	cm.rows = cm.rows[:n]
	cm.fold = cm.fold[:n]
}

// N returns the matrix width the Committer was Reset for.
func (cm *Committer) N() int { return cm.n }

// HashRow digests row r from its contiguous byte span (n cells of
// cellBytes each, as returned by blob.Extended.RowBytes): n cell
// digests into the arena, then the row digest over them. Each row must
// be hashed exactly once per Reset before Root or ProveAll.
func (cm *Committer) HashRow(r int, row []byte, cellBytes int) {
	n := cm.n
	d := cm.digests[r*n : (r+1)*n]
	// Cell digests go through the one-shot Sum256 over a staged
	// header||payload buffer: the copy is L1-resident and cheaper than
	// the streaming hash.Hash interface's per-cell Reset/Sum state churn.
	if cap(cm.cellBuf) < 5+cellBytes {
		cm.cellBuf = make([]byte, 5+cellBytes)
	}
	buf := cm.cellBuf[:5+cellBytes]
	buf[0] = domainCell
	binary.BigEndian.PutUint16(buf[1:3], uint16(r))
	for c := 0; c < n; c++ {
		binary.BigEndian.PutUint16(buf[3:5], uint16(c))
		copy(buf[5:], row[c*cellBytes:(c+1)*cellBytes])
		d[c] = sha256.Sum256(buf)
	}
	cm.hdr[0] = domainRow
	binary.BigEndian.PutUint32(cm.hdr[1:5], uint32(r))
	cm.h.Reset()
	cm.h.Write(cm.hdr[:5])
	for c := range d {
		cm.h.Write(d[c][:])
	}
	cm.h.Sum(cm.rows[r][:0])
}

// Root returns the commitment: a binary Merkle root over the row
// digests. The row digests are preserved (the fold runs on scratch), so
// Root may be called while proofs are still being generated.
func (cm *Committer) Root() Commitment {
	copy(cm.fold, cm.rows)
	return Commitment(merkleFold(cm.fold, cm.h))
}

// proveRow fills out[r*n:(r+1)*n] from the row's cell digests.
func (cm *Committer) proveRow(s *scratch, c Commitment, r int, out []Proof) {
	n := cm.n
	d := cm.digests[r*n : (r+1)*n]
	row := out[r*n : (r+1)*n]
	for i := range d {
		row[i] = s.proofFromDigest(c, &d[i])
	}
}

// ProveAll fills out (row-major, len >= n*n) with the proof of every
// cell against c, reusing the cell digests accumulated by HashRow — no
// payload is re-hashed. workers bounds the prover pool (values <= 1 run
// inline on the caller); each worker pins one pooled scratch for its
// whole life, so the steady-state loop performs zero allocations.
// rowDone, when non-nil, is invoked exactly once per row after that
// row's proofs are fully written; rows may finish out of order. All
// rows are complete when ProveAll returns.
func (cm *Committer) ProveAll(c Commitment, out []Proof, workers int, rowDone func(r int)) {
	n := cm.n
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := scratchPool.Get().(*scratch)
		for r := 0; r < n; r++ {
			cm.proveRow(s, c, r, out)
			if rowDone != nil {
				rowDone(r)
			}
		}
		scratchPool.Put(s)
		return
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scratchPool.Get().(*scratch)
			defer scratchPool.Put(s)
			for {
				r := int(next.Add(1)) - 1
				if r >= n {
					return
				}
				cm.proveRow(s, c, r, out)
				if rowDone != nil {
					rowDone(r)
				}
			}
		}()
	}
	wg.Wait()
}

// Commit computes the blob commitment for a fully extended matrix.
// Builders on the hot path should use a reused Committer instead; this
// convenience form allocates a fresh one.
func Commit(e *blob.Extended) Commitment {
	n := e.N()
	cb := e.Params().CellBytes
	cm := NewCommitter(n)
	for r := 0; r < n; r++ {
		cm.HashRow(r, e.RowBytes(r), cb)
	}
	return cm.Root()
}

// merkleFold folds the level pairwise in place with the supplied hash
// state (an odd tail node is promoted), consuming the slice's contents.
func merkleFold(level [][32]byte, h hash.Hash) [32]byte {
	for m := len(level); m > 1; {
		half := m / 2
		for i := 0; i < half; i++ {
			h.Reset()
			h.Write(level[2*i][:])
			h.Write(level[2*i+1][:])
			h.Sum(level[i][:0])
		}
		if m%2 == 1 {
			level[half] = level[m-1]
			m = half + 1
		} else {
			m = half
		}
	}
	return level[0]
}

// scratch holds the reusable hash state and digest buffers of one
// proof computation. Pooling it keeps Prove/Verify/VerifyBatch
// allocation-free in steady state: the SHA-256 state is Reset between
// cells, the digests land in fixed arrays, and buf stages small inputs
// so no stack-local array escapes through the hash.Hash interface (an
// interface Write moves its argument to the heap).
type scratch struct {
	h1     hash.Hash
	d1, d2 [sha256.Size]byte
	buf    [64]byte
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{h1: sha256.New()}
}}

// proofFromDigest derives a cell's proof from its cell digest: a
// 32-byte binding hash over (commitment || d[:16]) plus the digest's
// first 16 bytes, which verification recomputes anyway. The 48-byte
// binding input fits one SHA-256 block with its padding, so each proof
// costs a single compression and the payload is untouched.
func (s *scratch) proofFromDigest(c Commitment, d *[sha256.Size]byte) Proof {
	copy(s.buf[:32], c[:])
	copy(s.buf[32:48], d[:16])
	s.d2 = sha256.Sum256(s.buf[:48])
	var p Proof
	copy(p[:32], s.d2[:])
	copy(p[32:], d[:16])
	return p
}

// cellDigestInto computes the cell digest d = H(0x02 || row || col ||
// payload) into out.
func (s *scratch) cellDigestInto(id blob.CellID, cell []byte, out *[sha256.Size]byte) {
	s.buf[0] = domainCell
	binary.BigEndian.PutUint16(s.buf[1:3], id.Row)
	binary.BigEndian.PutUint16(s.buf[3:5], id.Col)
	s.h1.Reset()
	s.h1.Write(s.buf[:5])
	s.h1.Write(cell)
	s.h1.Sum(out[:0])
}

// proveInto computes the proof for one cell using pooled scratch state.
func (s *scratch) proveInto(c Commitment, id blob.CellID, cell []byte) Proof {
	s.cellDigestInto(id, cell, &s.d1)
	return s.proofFromDigest(c, &s.d1)
}

// Prove produces the 48-byte proof for a single cell. Only a party holding
// the commitment and the cell payload (i.e. the builder, or a node that
// already verified the cell) can produce it.
func Prove(c Commitment, id blob.CellID, cell []byte) Proof {
	s := scratchPool.Get().(*scratch)
	p := s.proveInto(c, id, cell)
	scratchPool.Put(s)
	return p
}

// Verify checks a cell payload against the commitment using its proof.
func Verify(c Commitment, id blob.CellID, cell []byte, p Proof) bool {
	return Prove(c, id, cell) == p
}

// VerifyBatch checks many cells against one commitment, amortizing the
// scratch state across the whole batch: one pooled pair of hash states
// serves every cell. No protocol path calls it: the benchmark's
// kzg.verify_batch_ns_per_cell probe measures it beside Verify, the
// comparison that keeps batching off the receive paths. ids, cells, and
// proofs are parallel slices; ok (which must be at least as long as ids)
// receives the per-cell verdict and the number of valid cells is
// returned.
func VerifyBatch(c Commitment, ids []blob.CellID, cells [][]byte, proofs []Proof, ok []bool) int {
	s := scratchPool.Get().(*scratch)
	valid := 0
	for i, id := range ids {
		good := s.proveInto(c, id, cells[i]) == proofs[i]
		ok[i] = good
		if good {
			valid++
		}
	}
	scratchPool.Put(s)
	return valid
}

// ProveAll computes proofs for every cell of the extended matrix,
// returned in row-major order, with one pooled scratch hoisted over the
// whole n*n loop. Builders should prefer Committer.ProveAll, which
// shares the payload hashing with Commit; this form re-digests every
// cell.
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
