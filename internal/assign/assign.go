// Package assign implements PANDAS's deterministic, short-lived
// cell-to-node assignment (Section 5 of the paper).
//
// The assignment function A(n, e) maps a node ID and an epoch to a fixed
// number of distinct rows and distinct columns of the extended blob
// matrix. Two properties are required:
//
//   - Determinism: any two nodes compute A(n, e) identically even with
//     inconsistent network views — so the function depends only on the
//     node ID and the epoch seed, never on view contents (unlike
//     consistent hashing).
//   - Short-liveness: the assignment changes unpredictably each epoch,
//     driven by the RANDAO-style epoch seed, preventing targeted eclipse
//     or censorship attacks on specific rows/columns.
package assign

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"pandas/internal/blob"
	"pandas/internal/ids"
)

// DefaultLinesPerKind is the paper's default custody load: 8 distinct rows
// and 8 distinct columns per node.
const DefaultLinesPerKind = 8

// Seed is a RANDAO-style epoch seed, known one epoch in advance.
type Seed [32]byte

// Params configures the assignment function.
type Params struct {
	// Rows and Cols are the number of distinct rows/columns assigned to
	// each node (8 and 8 in the paper).
	Rows, Cols int
	// N is the extended matrix width (512 in the paper).
	N int
}

// DefaultParams returns the paper's assignment parameters for the given
// extended width.
func DefaultParams(n int) Params {
	return Params{Rows: DefaultLinesPerKind, Cols: DefaultLinesPerKind, N: n}
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("assign: invalid matrix width %d", p.N)
	case p.Rows < 0 || p.Rows > p.N:
		return fmt.Errorf("assign: rows %d out of range [0,%d]", p.Rows, p.N)
	case p.Cols < 0 || p.Cols > p.N:
		return fmt.Errorf("assign: cols %d out of range [0,%d]", p.Cols, p.N)
	case p.Rows+p.Cols == 0:
		return fmt.Errorf("assign: empty assignment")
	}
	return nil
}

// Assignment is the custody duty of one node for one epoch.
type Assignment struct {
	Rows []uint16 // sorted, distinct
	Cols []uint16 // sorted, distinct
}

// Lines returns the assignment as a flat list of lines, rows first.
func (a Assignment) Lines() []blob.Line {
	out := make([]blob.Line, 0, len(a.Rows)+len(a.Cols))
	for _, r := range a.Rows {
		out = append(out, blob.Line{Kind: blob.Row, Index: r})
	}
	for _, c := range a.Cols {
		out = append(out, blob.Line{Kind: blob.Col, Index: c})
	}
	return out
}

// HasLine reports whether the assignment includes the line.
func (a Assignment) HasLine(l blob.Line) bool {
	s := a.Rows
	if l.Kind == blob.Col {
		s = a.Cols
	}
	for _, x := range s {
		if x == l.Index {
			return true
		}
	}
	return false
}

// Covers reports whether the node's custody includes the cell, i.e. one of
// its assigned rows or columns passes through it.
func (a Assignment) Covers(c blob.CellID) bool {
	return a.HasLine(blob.Line{Kind: blob.Row, Index: c.Row}) ||
		a.HasLine(blob.Line{Kind: blob.Col, Index: c.Col})
}

// For computes the assignment of node id in the epoch identified by seed.
// The computation is a pure function of (params, seed, id): it draws
// distinct row indices and distinct column indices from a
// cryptographically seeded PRNG, so it is deterministic across nodes and
// unpredictable across epochs.
func For(p Params, seed Seed, id ids.NodeID) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	rng := newPRNG(seed, id)
	return Assignment{
		Rows: drawDistinct(rng, p.Rows, p.N),
		Cols: drawDistinct(rng, p.Cols, p.N),
	}, nil
}

// drawDistinct samples count distinct values in [0, n) via a partial
// Fisher-Yates over a virtual identity array, then sorts them.
func drawDistinct(rng *prng, count, n int) []uint16 {
	if count == 0 {
		return nil
	}
	// Sparse Fisher-Yates: only touched indices are materialized.
	swapped := make(map[int]int, count*2)
	out := make([]uint16, count)
	for i := 0; i < count; i++ {
		j := i + int(rng.uint64n(uint64(n-i)))
		vi, ok := swapped[j]
		if !ok {
			vi = j
		}
		vj, ok := swapped[i]
		if !ok {
			vj = i
		}
		out[i] = uint16(vi)
		swapped[j] = vj
	}
	insertionSortU16(out)
	return out
}

func insertionSortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// prng is a SplitMix64 generator seeded from SHA-256(seed || id), giving
// uniform, reproducible streams with cryptographic seed separation between
// nodes and epochs.
type prng struct {
	state uint64
}

func newPRNG(seed Seed, id ids.NodeID) *prng {
	h := sha256.New()
	h.Write(seed[:])
	h.Write(id[:])
	d := h.Sum(nil)
	return &prng{state: binary.BigEndian.Uint64(d[:8])}
}

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uint64n returns a uniform value in [0, n) using rejection sampling.
func (p *prng) uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := p.next()
		if v < limit {
			return v % n
		}
	}
}
