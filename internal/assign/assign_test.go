package assign

import (
	"testing"
	"testing/quick"

	"pandas/internal/blob"
	"pandas/internal/ids"
)

func seedOf(b byte) Seed {
	var s Seed
	s[0] = b
	return s
}

func TestForDeterministic(t *testing.T) {
	p := DefaultParams(512)
	id := ids.NewTestIdentity(1).ID
	a1, err := For(p, seedOf(1), id)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := For(p, seedOf(1), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Rows) != len(a2.Rows) || len(a1.Cols) != len(a2.Cols) {
		t.Fatal("lengths differ")
	}
	for i := range a1.Rows {
		if a1.Rows[i] != a2.Rows[i] {
			t.Fatal("rows differ between identical calls")
		}
	}
	for i := range a1.Cols {
		if a1.Cols[i] != a2.Cols[i] {
			t.Fatal("cols differ between identical calls")
		}
	}
}

func TestForDistinctAndInRange(t *testing.T) {
	p := DefaultParams(512)
	for s := int64(0); s < 20; s++ {
		id := ids.NewTestIdentity(s).ID
		a, err := For(p, seedOf(byte(s)), id)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != 8 || len(a.Cols) != 8 {
			t.Fatalf("got %d rows, %d cols", len(a.Rows), len(a.Cols))
		}
		seen := map[uint16]bool{}
		for _, r := range a.Rows {
			if int(r) >= p.N {
				t.Fatalf("row %d out of range", r)
			}
			if seen[r] {
				t.Fatalf("duplicate row %d", r)
			}
			seen[r] = true
		}
		seen = map[uint16]bool{}
		for _, c := range a.Cols {
			if int(c) >= p.N {
				t.Fatalf("col %d out of range", c)
			}
			if seen[c] {
				t.Fatalf("duplicate col %d", c)
			}
			seen[c] = true
		}
	}
}

func TestForSorted(t *testing.T) {
	p := DefaultParams(512)
	a, err := For(p, seedOf(9), ids.NewTestIdentity(9).ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.Rows); i++ {
		if a.Rows[i] < a.Rows[i-1] {
			t.Fatal("rows not sorted")
		}
	}
	for i := 1; i < len(a.Cols); i++ {
		if a.Cols[i] < a.Cols[i-1] {
			t.Fatal("cols not sorted")
		}
	}
}

func TestShortLiveness(t *testing.T) {
	// Different epoch seeds must (overwhelmingly) give different
	// assignments for the same node.
	p := DefaultParams(512)
	id := ids.NewTestIdentity(3).ID
	a1, _ := For(p, seedOf(1), id)
	a2, _ := For(p, seedOf(2), id)
	same := true
	for i := range a1.Rows {
		if a1.Rows[i] != a2.Rows[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("assignment did not change across epochs")
	}
}

func TestNodeSeparation(t *testing.T) {
	p := DefaultParams(512)
	a1, _ := For(p, seedOf(1), ids.NewTestIdentity(1).ID)
	a2, _ := For(p, seedOf(1), ids.NewTestIdentity(2).ID)
	same := true
	for i := range a1.Rows {
		if a1.Rows[i] != a2.Rows[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two nodes drew identical rows (vanishingly unlikely)")
	}
}

func TestUniformity(t *testing.T) {
	// Over many nodes, each row index should be assigned roughly equally
	// often: mean = nodes*rows/N, and no line should deviate wildly.
	p := DefaultParams(128)
	const nodes = 2000
	counts := make([]int, p.N)
	for i := 0; i < nodes; i++ {
		a, err := For(p, seedOf(5), ids.NewTestIdentity(int64(i)).ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range a.Rows {
			counts[r]++
		}
	}
	mean := float64(nodes*p.Rows) / float64(p.N)
	for i, c := range counts {
		if float64(c) < mean*0.5 || float64(c) > mean*1.5 {
			t.Fatalf("row %d assigned %d times, mean %.1f (non-uniform)", i, c, mean)
		}
	}
}

func TestLinesAndHasLine(t *testing.T) {
	a := Assignment{Rows: []uint16{1, 5}, Cols: []uint16{2}}
	lines := a.Lines()
	if len(lines) != 3 {
		t.Fatalf("len(lines) = %d", len(lines))
	}
	if !a.HasLine(blob.Line{Kind: blob.Row, Index: 5}) {
		t.Fatal("HasLine missed row 5")
	}
	if a.HasLine(blob.Line{Kind: blob.Col, Index: 5}) {
		t.Fatal("HasLine found col 5")
	}
	if !a.Covers(blob.CellID{Row: 1, Col: 100}) {
		t.Fatal("Covers missed row cell")
	}
	if !a.Covers(blob.CellID{Row: 100, Col: 2}) {
		t.Fatal("Covers missed col cell")
	}
	if a.Covers(blob.CellID{Row: 100, Col: 100}) {
		t.Fatal("Covers claimed uncovered cell")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Rows: 8, Cols: 8, N: 1},
		{Rows: -1, Cols: 8, N: 16},
		{Rows: 8, Cols: 17, N: 16},
		{Rows: 0, Cols: 0, N: 16},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if err := DefaultParams(512).Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestDrawDistinctProperties(t *testing.T) {
	f := func(seedByte byte, idSeed int64) bool {
		rng := newPRNG(seedOf(seedByte), ids.NewTestIdentity(idSeed%100).ID)
		n := 32
		count := 1 + int(uint(seedByte)%16)
		vals := drawDistinct(rng, count, n)
		if len(vals) != count {
			return false
		}
		seen := map[uint16]bool{}
		for i, v := range vals {
			if int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
			if i > 0 && vals[i] < vals[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawDistinctFullRange(t *testing.T) {
	rng := newPRNG(seedOf(1), ids.NewTestIdentity(1).ID)
	vals := drawDistinct(rng, 16, 16)
	for i, v := range vals {
		if int(v) != i {
			t.Fatalf("drawing all of [0,16) must yield the identity, got %v", vals)
		}
	}
}

func BenchmarkFor(b *testing.B) {
	p := DefaultParams(512)
	id := ids.NewTestIdentity(1).ID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := For(p, seedOf(byte(i)), id); err != nil {
			b.Fatal(err)
		}
	}
}
