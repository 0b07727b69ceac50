package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/kzg"
	"pandas/internal/wire"
)

// alwaysVerifyStore is the store's insert path as it was before
// verify-once, kept as the differential oracle: Add proves every arrival
// before it looks whether the cell is held, payloads live under a map, and
// TryReconstruct stores what it restored through that same Add — which
// proves each restored cell a second time.
type alwaysVerifyStore struct {
	p             blob.Params
	held          map[blob.CellID]wire.Cell
	commitment    kzg.Commitment
	hasCommitment bool
	verifyCalls   int
}

func (o *alwaysVerifyStore) Add(c wire.Cell) (bool, error) {
	if int(c.ID.Row) >= o.p.N() || int(c.ID.Col) >= o.p.N() {
		return false, fmt.Errorf("%w: cell %v out of range", blob.ErrBadCell, c.ID)
	}
	if c.Tainted {
		return false, fmt.Errorf("%w: cell %v (tainted)", ErrBadProof, c.ID)
	}
	if o.hasCommitment {
		o.verifyCalls++
		if !kzg.Verify(o.commitment, c.ID, c.Data, c.Proof) {
			return false, fmt.Errorf("%w: cell %v", ErrBadProof, c.ID)
		}
	}
	if _, dup := o.held[c.ID]; dup {
		return false, nil
	}
	c.Data = bytes.Clone(c.Data) // the oracle never aliases its input
	o.held[c.ID] = c
	return true, nil
}

func (o *alwaysVerifyStore) TryReconstruct(l blob.Line) ([]wire.Cell, error) {
	n := o.p.N()
	full := make([][]byte, n)
	var missing []int
	for pos := range full {
		if c, ok := o.held[cellOnLine(l, pos)]; ok {
			full[pos] = c.Data
		} else {
			missing = append(missing, pos)
		}
	}
	if len(missing) == 0 || n-len(missing) < n/2 {
		return nil, nil
	}
	if err := blob.ReconstructLine(o.p, full); err != nil {
		return nil, err
	}
	var out []wire.Cell
	for _, pos := range missing {
		id := cellOnLine(l, pos)
		c := wire.Cell{ID: id, Data: full[pos]}
		if o.hasCommitment {
			c.Proof = kzg.Prove(o.commitment, id, full[pos])
		}
		out = append(out, c)
	}
	for _, c := range out {
		if _, err := o.Add(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameOutcome compares two (added, err) results the way Node.addCells
// reads them: the flag, and which sentinel the error wraps.
func sameOutcome(gotAdded bool, gotErr error, wantAdded bool, wantErr error) bool {
	return gotAdded == wantAdded &&
		(gotErr == nil) == (wantErr == nil) &&
		errors.Is(gotErr, ErrBadProof) == errors.Is(wantErr, ErrBadProof) &&
		errors.Is(gotErr, blob.ErrBadCell) == errors.Is(wantErr, blob.ErrBadCell)
}

// TestStoreVerifyOnceMatchesAlwaysVerify drives one store and the oracle
// with the same random sequence — fresh cells, byte-identical duplicates,
// duplicates with one payload bit or one proof bit flipped, cells that
// land before the commitment, cells outside the matrix, tainted cells,
// borrowed payloads whose buffer is scribbled over after the call,
// reconstructions, and a late change of commitment — and requires the
// same (added, err) from every call, the same contents at the end, and
// strictly fewer proof checks.
func TestStoreVerifyOnceMatchesAlwaysVerify(t *testing.T) {
	p := testStoreParams()
	n := p.N()
	a := assign.Assignment{Rows: []uint16{1, 5}, Cols: []uint16{2, 9}}
	lines := a.Lines()
	s := NewStore(p, a, true, true)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, p.BlobBytes())
		rng.Read(data)
		ext, err := blob.ExtendData(p, data, blob.ExtendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		com := kzg.Commit(ext)

		s.Reset(a, true, true)
		o := &alwaysVerifyStore{p: p, held: map[blob.CellID]wire.Cell{}}
		scratch := make([]byte, p.CellBytes) // stands in for a datagram buffer

		arrival := func() wire.Cell {
			var id blob.CellID
			switch r := rng.Intn(20); {
			case r == 0: // outside the matrix
				id = blob.CellID{Row: uint16(n + rng.Intn(5)), Col: uint16(rng.Intn(n))}
			case r < 4: // anywhere: mostly off-custody extras
				id = blob.CellID{Row: uint16(rng.Intn(n)), Col: uint16(rng.Intn(n))}
			default:
				id = cellOnLine(lines[rng.Intn(len(lines))], rng.Intn(n))
			}
			c := wire.Cell{ID: id}
			if int(id.Row) < n {
				c.Data = ext.Cell(id)
				c.Proof = kzg.Prove(com, id, c.Data)
			}
			switch r := rng.Intn(16); {
			case r == 0 && c.Data != nil:
				c.Data = bytes.Clone(c.Data)
				c.Data[rng.Intn(len(c.Data))] ^= 1 << uint(rng.Intn(8))
			case r == 1:
				c.Proof[rng.Intn(len(c.Proof))] ^= 1 << uint(rng.Intn(8))
			case r == 2:
				c.Tainted = true
			}
			if c.Data != nil && rng.Intn(2) == 0 {
				copy(scratch, c.Data)
				c.Data, c.Borrowed = scratch, true
			}
			return c
		}

		early := 20 + rng.Intn(40) // arrivals that beat the first seed datagram
		for op := 0; op < 1500; op++ {
			if op == early {
				s.SetCommitment(com)
				o.commitment, o.hasCommitment = com, true
			}
			if op == 1400 {
				// A different commitment: what was checked against the old
				// one vouches for nothing now.
				other := com
				other[0] ^= 0xFF
				s.SetCommitment(other)
				o.commitment = other
			}
			if op > early && rng.Intn(12) == 0 {
				l := lines[rng.Intn(len(lines))]
				got, gotErr := s.TryReconstruct(l)
				want, wantErr := o.TryReconstruct(l)
				if (gotErr == nil) != (wantErr == nil) || len(got) != len(want) {
					t.Fatalf("seed %d op %d: TryReconstruct(%v) = %d cells, %v; oracle %d cells, %v",
						seed, op, l, len(got), gotErr, len(want), wantErr)
				}
				for i := range got {
					if got[i].ID != want[i].ID || got[i].Proof != want[i].Proof || !bytes.Equal(got[i].Data, want[i].Data) {
						t.Fatalf("seed %d op %d: restored cell %d differs from the oracle's", seed, op, i)
					}
				}
				continue
			}
			c := arrival()
			want, wantErr := o.Add(c)
			got, gotErr := s.Add(c)
			if !sameOutcome(got, gotErr, want, wantErr) {
				t.Fatalf("seed %d op %d: Add(%v borrowed=%v) = %v, %v; oracle %v, %v",
					seed, op, c.ID, c.Borrowed, got, gotErr, want, wantErr)
			}
			rng.Read(scratch) // the datagram buffer moves on
		}

		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				id := blob.CellID{Row: uint16(r), Col: uint16(c)}
				want, held := o.held[id]
				got, ok := s.Peek(id)
				if ok != held || s.Has(id) != held {
					t.Fatalf("seed %d: cell %v held=%v, oracle %v", seed, id, ok, held)
				}
				if held && (got.Proof != want.Proof || !bytes.Equal(got.Data, want.Data)) {
					t.Fatalf("seed %d: cell %v contents differ from the oracle's", seed, id)
				}
			}
		}
		if s.verifyCalls >= o.verifyCalls {
			t.Fatalf("seed %d: %d proof checks, always-verify makes %d", seed, s.verifyCalls, o.verifyCalls)
		}
		t.Logf("seed %d: %d proof checks against %d", seed, s.verifyCalls, o.verifyCalls)
	}
}
