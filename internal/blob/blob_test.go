package blob

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testParams() Params { return Params{K: 8, CellBytes: 32, ProofBytes: 48} }

// randExtended extends a full blob of seeded random data.
func randExtended(t testing.TB, p Params, seed int64) (data []byte, e *Extended) {
	t.Helper()
	data = randData(p.BlobBytes(), seed)
	e, err := ExtendData(p, data, ExtendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return data, e
}

func randData(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{DefaultParams(), true},
		{TestParams(), true},
		{Params{K: 0, CellBytes: 64, ProofBytes: 48}, false},
		{Params{K: 8, CellBytes: 63, ProofBytes: 48}, false}, // odd
		{Params{K: 8, CellBytes: 0, ProofBytes: 48}, false},
		{Params{K: 8, CellBytes: 64, ProofBytes: -1}, false},
		{Params{K: 40000, CellBytes: 64, ProofBytes: 0}, false}, // 2K > 65536
		{Params{K: 65536, CellBytes: 64, ProofBytes: 0}, false}, // power of two, still too wide
		{Params{K: 1, CellBytes: 2, ProofBytes: 0}, true},
		{Params{K: 3, CellBytes: 64, ProofBytes: 48}, false}, // not a power of two
		{Params{K: 12, CellBytes: 64, ProofBytes: 48}, false},
		{Params{K: 48, CellBytes: 64, ProofBytes: 48}, false},
	}
	for i, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrInvalidParams)) {
			t.Errorf("case %d: Validate() = %v, ok=%v", i, err, c.ok)
		}
	}
}

func TestParamsPaperNumbers(t *testing.T) {
	p := DefaultParams()
	if got := p.BlobBytes(); got != 32*1024*1024 {
		t.Errorf("BlobBytes = %d, want 32 MiB", got)
	}
	if got := p.CellWireBytes(); got != 560 {
		t.Errorf("CellWireBytes = %d, want 560", got)
	}
	if got := p.N(); got != 512 {
		t.Errorf("N = %d, want 512", got)
	}
}

// TestExtendDataPadsAndRejects: short data lands at the start of the data
// quadrant with the rest of it zero; data beyond the capacity is refused.
func TestExtendDataPadsAndRejects(t *testing.T) {
	p := testParams()
	e, err := ExtendData(p, []byte("hello"), ExtendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var quadrant []byte
	for r := 0; r < p.K; r++ {
		quadrant = append(quadrant, e.RowBytes(r)[:p.K*p.CellBytes]...)
	}
	if !bytes.Equal(quadrant[:5], []byte("hello")) {
		t.Fatal("data prefix lost")
	}
	for _, x := range quadrant[5:] {
		if x != 0 {
			t.Fatal("padding not zero")
		}
	}
	if _, err := ExtendData(p, make([]byte, p.BlobBytes()+1), ExtendOptions{}); !errors.Is(err, ErrDataTooLarge) {
		t.Fatalf("err = %v, want ErrDataTooLarge", err)
	}
}

func TestExtendSystematic(t *testing.T) {
	p := testParams()
	data, e := randExtended(t, p, 1)
	// The data quadrant must be the packed data, cell by cell.
	for r := 0; r < p.K; r++ {
		for c := 0; c < p.K; c++ {
			off := (r*p.K + c) * p.CellBytes
			if !bytes.Equal(e.Cell(CellID{uint16(r), uint16(c)}), data[off:off+p.CellBytes]) {
				t.Fatalf("data cell (%d,%d) differs", r, c)
			}
		}
	}
}

func TestExtendRowsAndColumnsAreCodewords(t *testing.T) {
	p := testParams()
	_, e := randExtended(t, p, 2)
	codec, err := codecFor(p)
	if err != nil {
		t.Fatal(err)
	}
	// A line is a codeword iff re-encoding its first K cells reproduces
	// the other K.
	for i := 0; i < p.N(); i++ {
		for _, l := range []Line{{Row, uint16(i)}, {Col, uint16(i)}} {
			cells := e.Line(l)
			again := make([][]byte, p.N())
			copy(again, cells[:p.K])
			if err := codec.Encode(again); err != nil {
				t.Fatal(err)
			}
			for pos := range cells {
				if !bytes.Equal(again[pos], cells[pos]) {
					t.Fatalf("%v is not a codeword at position %d", l, pos)
				}
			}
		}
	}
}

func TestReconstructLineFromAnyHalf(t *testing.T) {
	p := testParams()
	_, e := randExtended(t, p, 3)
	n := p.N()
	rng := rand.New(rand.NewSource(4))
	for _, l := range []Line{{Row, 0}, {Row, uint16(n - 1)}, {Col, 3}, {Col, uint16(n / 2)}} {
		full := e.Line(l)
		got := make([][]byte, n)
		for _, pos := range rng.Perm(n)[:p.K] {
			got[pos] = full[pos]
		}
		if err := ReconstructLine(p, got); err != nil {
			t.Fatalf("line %v: %v", l, err)
		}
		for i := range full {
			if !bytes.Equal(got[i], full[i]) {
				t.Fatalf("line %v cell %d mismatch", l, i)
			}
		}
	}
}

func TestReconstructLineErrors(t *testing.T) {
	p := testParams()
	line := make([][]byte, p.N())
	line[0] = make([]byte, p.CellBytes)
	if err := ReconstructLine(p, line); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("err = %v, want ErrNotEnough", err)
	}
	for i := 0; i < p.K; i++ {
		line[i] = make([]byte, p.CellBytes)
	}
	line[0] = make([]byte, p.CellBytes+1)
	if err := ReconstructLine(p, line); !errors.Is(err, ErrBadCell) {
		t.Fatalf("err = %v, want ErrBadCell", err)
	}
	line[0] = make([]byte, p.CellBytes)
	if err := ReconstructLine(p, append(line, nil)); !errors.Is(err, ErrBadCell) { // one position too many
		t.Fatalf("err = %v, want ErrBadCell", err)
	}
	if line[p.N()-1] != nil {
		t.Fatal("failed calls filled the line")
	}
}

func TestQuickReconstructRandomHalves(t *testing.T) {
	p := Params{K: 4, CellBytes: 8, ProofBytes: 0}
	_, e := randExtended(t, p, 5)
	n := p.N()
	f := func(seed int64, rowIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Line{Kind: Row, Index: uint16(int(rowIdx) % n)}
		if seed%2 == 0 {
			l.Kind = Col
		}
		full := e.Line(l)
		got := make([][]byte, n)
		keep := p.K + rng.Intn(n-p.K+1) // any count in [K, n]
		for _, pos := range rng.Perm(n)[:keep] {
			got[pos] = full[pos]
		}
		if err := ReconstructLine(p, got); err != nil {
			return false
		}
		for i := range full {
			if !bytes.Equal(got[i], full[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCellIDIndexRoundTrip(t *testing.T) {
	n := 32
	for idx := 0; idx < n*n; idx += 7 {
		id := CellIDFromIndex(idx, n)
		if id.Index(n) != idx {
			t.Fatalf("round trip failed for %d", idx)
		}
	}
}

func TestLineCellsAndContains(t *testing.T) {
	r := Line{Kind: Row, Index: 3}
	cells := r.Cells(8)
	if len(cells) != 8 {
		t.Fatalf("len = %d", len(cells))
	}
	for i, c := range cells {
		if c.Row != 3 || int(c.Col) != i {
			t.Fatalf("bad cell %v at %d", c, i)
		}
		if !r.Contains(c) {
			t.Fatalf("Contains(%v) = false", c)
		}
	}
	if r.Contains(CellID{Row: 4, Col: 0}) {
		t.Fatal("row 3 contains row-4 cell")
	}
	c := Line{Kind: Col, Index: 5}
	if !c.Contains(CellID{Row: 7, Col: 5}) || c.Contains(CellID{Row: 5, Col: 4}) {
		t.Fatal("column Contains wrong")
	}
}

func TestLineKindString(t *testing.T) {
	if Row.String() != "row" || Col.String() != "col" {
		t.Fatal("LineKind strings wrong")
	}
	if (Line{Kind: Row, Index: 7}).String() != "row7" {
		t.Fatal("Line string wrong")
	}
}
