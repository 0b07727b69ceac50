package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pandas/internal/blob"
	"pandas/internal/ids"
)

const testCellBytes = 64

func randCell(rng *rand.Rand) Cell {
	c := Cell{ID: blob.CellID{Row: uint16(rng.Intn(512)), Col: uint16(rng.Intn(512))}}
	c.Data = make([]byte, testCellBytes)
	rng.Read(c.Data)
	rng.Read(c.Proof[:])
	return c
}

func TestSeedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &Seed{
		Slot:    42,
		Builder: ids.NewTestIdentity(1).ID,
	}
	rng.Read(m.ProposerSig[:])
	rng.Read(m.Commitment[:])
	for i := 0; i < 10; i++ {
		m.Cells = append(m.Cells, randCell(rng))
	}
	m.Boost = [][]BoostEntry{
		{
			{Line: blob.Line{Kind: blob.Row, Index: 7}, HolderRef: 3, Start: 0, Count: 12},
			{Line: blob.Line{Kind: blob.Row, Index: 7}, HolderRef: 9, Start: 0, Count: 12},
			{Line: blob.Line{Kind: blob.Row, Index: 7}, HolderRef: 4, Start: 12, Count: 3},
		},
		{{Line: blob.Line{Kind: blob.Col, Index: 500}, HolderRef: 90, Start: 256, Count: 8}},
	}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != m.WireSize(testCellBytes)-OverheadIPUDP {
		t.Fatalf("encoded %d bytes, WireSize-overhead %d", len(data), m.WireSize(testCellBytes)-OverheadIPUDP)
	}
	got, err := Decode(data, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got.(*Seed)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if s.Slot != m.Slot || s.Builder != m.Builder || s.ProposerSig != m.ProposerSig || s.Commitment != m.Commitment {
		t.Fatal("header fields mismatch")
	}
	if len(s.Cells) != len(m.Cells) {
		t.Fatalf("cells %d vs %d", len(s.Cells), len(m.Cells))
	}
	for i := range s.Cells {
		if s.Cells[i].ID != m.Cells[i].ID || !bytes.Equal(s.Cells[i].Data, m.Cells[i].Data) || s.Cells[i].Proof != m.Cells[i].Proof {
			t.Fatalf("cell %d mismatch", i)
		}
	}
	if !sameEntries(s.Boost, m.Boost) {
		t.Fatalf("boost mismatch: %+v", s.Boost)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	m := &Query{Slot: 7, Cells: []blob.CellID{{Row: 1, Col: 2}, {Row: 3, Col: 4}, {Row: 511, Col: 0}}}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	q := got.(*Query)
	if q.Slot != 7 || len(q.Cells) != 3 {
		t.Fatal("query fields mismatch")
	}
	for i := range q.Cells {
		if q.Cells[i] != m.Cells[i] {
			t.Fatalf("cell id %d mismatch", i)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := &Response{Slot: 9}
	for i := 0; i < 5; i++ {
		m.Cells = append(m.Cells, randCell(rng))
	}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	r := got.(*Response)
	if r.Slot != 9 || len(r.Cells) != 5 {
		t.Fatal("response fields mismatch")
	}
	for i := range r.Cells {
		if r.Cells[i].ID != m.Cells[i].ID || !bytes.Equal(r.Cells[i].Data, m.Cells[i].Data) {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestMetadataCellsEncodeAsZeros(t *testing.T) {
	m := &Response{Slot: 1, Cells: []Cell{{ID: blob.CellID{Row: 5, Col: 6}}}} // nil Data
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	c := got.(*Response).Cells[0]
	if len(c.Data) != testCellBytes {
		t.Fatalf("decoded payload %d bytes", len(c.Data))
	}
	for _, b := range c.Data {
		if b != 0 {
			t.Fatal("metadata cell not zero-encoded")
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil, testCellBytes); !errors.Is(err, ErrTruncated) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := Decode([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0}, testCellBytes); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type: %v", err)
	}
	// Truncated query: claims 5 cells, provides none.
	m := &Query{Slot: 1, Cells: []blob.CellID{{Row: 1, Col: 1}, {Row: 2, Col: 2}, {Row: 3, Col: 3}, {Row: 4, Col: 4}, {Row: 5, Col: 5}}}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:14], testCellBytes); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	m := &Response{Slot: 1}
	for i := 0; i < 200; i++ { // 200 cells * 560+ bytes > 65507 with big cells
		c := Cell{ID: blob.CellID{Row: uint16(i)}}
		c.Data = make([]byte, 512)
		m.Cells = append(m.Cells, c)
	}
	if _, err := Encode(m, 512); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(fakeMsg{}, testCellBytes); !errors.Is(err, ErrBadType) {
		t.Fatalf("err = %v, want ErrBadType", err)
	}
}

// packedBoost returns the boost map of a boost-only datagram the way the
// builder packs it: lines runs of parcels parcels each, every parcel sent
// to copies holders back to back.
func packedBoost(lines, parcels, copies int) [][]BoostEntry {
	runs := make([][]BoostEntry, lines)
	for i := range runs {
		l := blob.Line{Kind: blob.LineKind(i % 2), Index: uint16(3 * i)}
		for p := 0; p < parcels; p++ {
			for c := 0; c < copies; c++ {
				runs[i] = append(runs[i], BoostEntry{Line: l, HolderRef: uint16((p*7 + c*13) % 200),
					Start: uint16(2 * p), Count: 2})
			}
		}
	}
	return runs
}

// sameRuns reports whether two boost maps hold the same entries, run by
// run.
func sameRuns(a, b [][]BoostEntry) bool {
	return slices.EqualFunc(a, b, func(x, y []BoostEntry) bool { return slices.Equal(x, y) })
}

// sameEntries reports whether two boost maps hold the same entries in the
// same order, however they are cut into runs: what a decoder must find
// of what was encoded, where one run of the map may be several encoded
// runs.
func sameEntries(a, b [][]BoostEntry) bool {
	return slices.Equal(slices.Concat(a...), slices.Concat(b...))
}

// TestBoostEncodedByParcel pins the boost section's bytes: a run's head
// is 9 bytes, and a parcel costs a 1-byte count and a rank per holder,
// 1 byte wide while every rank of the run is below 256 and 2 beyond, so
// two holders cost 3 bytes a parcel or 5. A gap, a change of holder
// count or a parcel cut at 255 holders opens a new run, and every case
// decodes back to the entries encoded.
func TestBoostEncodedByParcel(t *testing.T) {
	empty := (&Seed{}).WireSize(testCellBytes)
	row := blob.Line{Kind: blob.Row, Index: 7}
	wide := packedBoost(1, 16, 2)
	for i := range wide[0] {
		wide[0][i].HolderRef += 256
	}
	for _, tc := range []struct {
		name string
		runs [][]BoostEntry
		want int // boost bytes past the empty section
	}{
		{"2 holders, 1-byte ranks", packedBoost(1, 16, 2), 9 + 16*3},
		{"2 holders, 2-byte ranks", wide, 9 + 16*5},
		{"one line, 16 parcels x 8 copies", packedBoost(1, 16, 8), 9 + 16*(1+8)},
		{"8 lines", packedBoost(8, 16, 8), 8 * (9 + 16*(1+8))},
		{"300 copies of one parcel", packedBoost(1, 1, 300), (9 + 1 + 255) + (9 + 1 + 45)},
		{"a gap", [][]BoostEntry{{{Line: row, HolderRef: 1, Start: 0, Count: 2}, {Line: row, HolderRef: 2, Start: 4, Count: 2}}}, 2 * (9 + 2)},
		{"holders per parcel change", [][]BoostEntry{{{Line: row, HolderRef: 1, Start: 0, Count: 2},
			{Line: row, HolderRef: 2, Start: 2, Count: 2}, {Line: row, HolderRef: 3, Start: 2, Count: 2}}}, (9 + 2) + (9 + 3)},
		{"a 2-byte count", [][]BoostEntry{{{Line: row, HolderRef: 1, Start: 0, Count: 200}}}, 9 + 2 + 1},
	} {
		m := &Seed{Slot: 1, ChunkCount: 1, Boost: tc.runs}
		if got := m.WireSize(testCellBytes) - empty; got != tc.want {
			t.Errorf("%s: WireSize charges %d boost bytes, want %d", tc.name, got, tc.want)
		}
		data, err := Encode(m, testCellBytes)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != m.WireSize(testCellBytes)-OverheadIPUDP {
			t.Errorf("%s: encoded %d bytes, WireSize-overhead %d", tc.name, len(data), m.WireSize(testCellBytes)-OverheadIPUDP)
		}
		got, err := Decode(data, testCellBytes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameEntries(got.(*Seed).Boost, tc.runs) {
			t.Errorf("%s: decoded entries differ from the encoded ones", tc.name)
		}
	}
	// The run's bytes: line, first start, parcel count, holders, width,
	// then each parcel's count and ranks.
	m := &Seed{Boost: [][]BoostEntry{{
		{Line: row, HolderRef: 1, Start: 10, Count: 3}, {Line: row, HolderRef: 2, Start: 10, Count: 3},
		{Line: row, HolderRef: 3, Start: 13, Count: 3}, {Line: row, HolderRef: 300, Start: 13, Count: 3},
	}}}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 0, 0, 1, byte(blob.Row), 0, 7, 0, 10, 0, 2, 2, 2, 3, 0, 1, 0, 2, 3, 0, 3, 1, 44}
	if got := data[len(data)-len(want):]; !bytes.Equal(got, want) {
		t.Errorf("boost section % x, want % x", got, want)
	}
}

// boostSection returns a boost-only Seed datagram whose section is the
// given runs, each a run head (line row 1, first start, parcel count,
// holders, width) and body bytes, padded so that no count outruns the
// bytes behind it.
func boostSection(t *testing.T, runs ...[]byte) []byte {
	t.Helper()
	data, err := Encode(&Seed{}, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	data = binary.BigEndian.AppendUint32(data[:len(data)-4], uint32(len(runs)))
	for _, r := range runs {
		data = append(data, r...)
	}
	return append(data, make([]byte, minBoostRun)...)
}

// boostRunBytes returns one run's bytes for boostSection.
func boostRunBytes(start, parcels uint16, holders, width byte, body ...byte) []byte {
	r := append([]byte{byte(blob.Row), 0, 1}, byte(start>>8), byte(start), byte(parcels>>8), byte(parcels), holders, width)
	return append(r, body...)
}

// nonCanonicalBoosts returns boost sections the encoder never writes,
// by name: each must decode to ErrBadBoost.
func nonCanonicalBoosts(t *testing.T) map[string][]byte {
	return map[string][]byte{
		"empty run":           boostSection(t, boostRunBytes(0, 0, 1, 1)),
		"no holders":          boostSection(t, boostRunBytes(0, 1, 0, 1, 4)),
		"rank width 0":        boostSection(t, boostRunBytes(0, 1, 1, 0, 4)),
		"rank width 3":        boostSection(t, boostRunBytes(0, 1, 1, 3, 4, 0, 0, 5)),
		"zero count":          boostSection(t, boostRunBytes(0, 1, 1, 1, 0, 5)),
		"overlong count":      boostSection(t, boostRunBytes(0, 1, 1, 1, 0x84, 0x00, 5)),
		"2-byte ranks < 256":  boostSection(t, boostRunBytes(0, 2, 1, 2, 4, 0, 5, 4, 0, 255)),
		"parcel past 65535":   boostSection(t, boostRunBytes(65533, 1, 1, 1, 3, 5)),
		"second parcel past":  boostSection(t, boostRunBytes(65530, 2, 1, 1, 4, 5, 4, 6)),
		"count past 16 bits":  boostSection(t, boostRunBytes(0, 1, 1, 1, 0x80, 0x80, 0x04, 5)),
		"count past 64 bits":  boostSection(t, boostRunBytes(0, 1, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 5)),
		"bad second run":      boostSection(t, boostRunBytes(0, 1, 1, 1, 4, 5), boostRunBytes(4, 1, 1, 1, 0, 5)),
		"wide second parcels": boostSection(t, boostRunBytes(0, 1, 1, 1, 4, 5), boostRunBytes(4, 1, 1, 2, 4, 0, 5)),
	}
}

// TestBoostRejectsNonCanonical: the encoder refuses runs it cannot write
// (empty, mixing lines, a zero count or one ending past 65,535), and the
// decoder refuses sections the encoder would not have written, so what
// decodes re-encodes to its own bytes.
func TestBoostRejectsNonCanonical(t *testing.T) {
	row, col := blob.Line{Kind: blob.Row, Index: 1}, blob.Line{Kind: blob.Col, Index: 1}
	for name, runs := range map[string][][]BoostEntry{
		"empty run":         {{}},
		"mixed lines":       {{{Line: row, Count: 1}, {Line: col, Count: 1}}},
		"mixed after a gap": {{{Line: row, Count: 1}, {Line: col, Start: 5, Count: 1}}},
		"zero count":        {{{Line: row, Count: 1}, {Line: row, Start: 1}}},
		"parcel past 65535": {{{Line: row, Start: 65535, Count: 1}}},
	} {
		if _, err := Encode(&Seed{Boost: runs}, testCellBytes); !errors.Is(err, ErrBadBoost) {
			t.Errorf("encode %s: err = %v, want ErrBadBoost", name, err)
		}
	}
	for name, data := range nonCanonicalBoosts(t) {
		if _, err := Decode(data, testCellBytes); !errors.Is(err, ErrBadBoost) {
			t.Errorf("decode %s: err = %v, want ErrBadBoost", name, err)
		}
	}
	// Sections the encoder does write: a run ending at 65,535, a 2-byte
	// count, 2-byte ranks, a run cut by a gap and a parcel cut at 255
	// holders.
	for name, data := range map[string][]byte{
		"ends at 65535": boostSection(t, boostRunBytes(65530, 1, 1, 1, 5, 5)),
		"2-byte count":  boostSection(t, boostRunBytes(0, 1, 1, 1, 0x80, 0x01, 5)),
		"2-byte ranks":  boostSection(t, boostRunBytes(0, 2, 1, 2, 4, 0, 5, 4, 1, 0)),
		"gap":           boostSection(t, boostRunBytes(0, 1, 2, 1, 4, 1, 2), boostRunBytes(8, 1, 2, 1, 4, 1, 2)),
		"255-holder cut": boostSection(t, boostRunBytes(0, 1, 255, 1, append([]byte{4}, make([]byte, 255)...)...),
			boostRunBytes(0, 1, 3, 1, 4, 0, 0, 0)),
	} {
		data = data[:len(data)-minBoostRun] // no padding: the section ends the datagram
		m, err := Decode(data, testCellBytes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re, err := Encode(m, testCellBytes); err != nil || !bytes.Equal(re, data) {
			t.Errorf("%s does not re-encode to its bytes (%v)", name, err)
		}
	}
}

type fakeMsg struct{}

func (fakeMsg) Type() MsgType    { return 99 }
func (fakeMsg) WireSize(int) int { return 0 }

func TestWireSizePaperCell(t *testing.T) {
	// With paper parameters a cell costs 4 + 512 + 48 = 564 bytes framed.
	if got := CellWire(512); got != 564 {
		t.Fatalf("CellWire(512) = %d", got)
	}
	// A single-cell query is tiny (the "lightweight direct exchange").
	q := &Query{Slot: 1, Cells: make([]blob.CellID, 1)}
	if got := q.WireSize(512); got != OverheadIPUDP+1+8+4+4 {
		t.Fatalf("query WireSize = %d", got)
	}
}

func TestQuickQueryRoundTrip(t *testing.T) {
	f := func(slot uint64, rows, cols []uint16) bool {
		n := min(len(rows), len(cols))
		m := &Query{Slot: slot}
		for i := 0; i < n; i++ {
			m.Cells = append(m.Cells, blob.CellID{Row: rows[i], Col: cols[i]})
		}
		data, err := Encode(m, testCellBytes)
		if err != nil {
			return errors.Is(err, ErrTooLarge) && len(m.Cells) > 16000
		}
		got, err := Decode(data, testCellBytes)
		if err != nil {
			return false
		}
		q := got.(*Query)
		if q.Slot != slot || len(q.Cells) != n {
			return false
		}
		for i := range q.Cells {
			if q.Cells[i] != m.Cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySeedSignatureFlow(t *testing.T) {
	// The proposer signs the builder binding; nodes verify it on receipt.
	// This test documents the signing flow end to end at the wire level.
	proposer := ids.NewTestIdentity(10)
	builder := ids.NewTestIdentity(11)
	binding := SeedSigningBytes(42, builder.ID)
	var sig [SigSize]byte
	copy(sig[:], proposer.Sign(binding))
	m := &Seed{Slot: 42, Builder: builder.ID, ProposerSig: sig}
	if !ids.VerifyFrom(proposer.Public, SeedSigningBytes(m.Slot, m.Builder), m.ProposerSig[:]) {
		t.Fatal("seed signature verification failed")
	}
	if ids.VerifyFrom(proposer.Public, SeedSigningBytes(43, m.Builder), m.ProposerSig[:]) {
		t.Fatal("signature valid for wrong slot")
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := &Response{Slot: 1}
	for i := 0; i < 50; i++ {
		m.Cells = append(m.Cells, randCell(rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m, testCellBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := &Response{Slot: 1}
	for i := 0; i < 50; i++ {
		m.Cells = append(m.Cells, randCell(rng))
	}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data, testCellBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeNeverPanicsOnRandomInput(t *testing.T) {
	// Robustness: arbitrary datagrams from the network must never panic
	// the decoder — they either parse or return an error.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		size := rng.Intn(2048)
		buf := make([]byte, size)
		rng.Read(buf)
		if size > 0 {
			buf[0] = byte(rng.Intn(5)) // bias toward valid type tags
		}
		_, _ = Decode(buf, testCellBytes)
	}
}

func TestDecodeTruncationSweep(t *testing.T) {
	// Every prefix of a valid message must decode cleanly or error —
	// never panic, never return a half-parsed success.
	rng := rand.New(rand.NewSource(100))
	m := &Seed{Slot: 5, Builder: ids.NewTestIdentity(1).ID}
	for i := 0; i < 6; i++ {
		m.Cells = append(m.Cells, randCell(rng))
	}
	m.Boost = [][]BoostEntry{{{Line: blob.Line{Kind: blob.Row, Index: 1}, HolderRef: 2, Start: 3, Count: 4}}}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if msg, err := Decode(data[:cut], testCellBytes); err == nil {
			s, ok := msg.(*Seed)
			if !ok || len(s.Cells) > len(m.Cells) {
				t.Fatalf("cut %d produced inconsistent message", cut)
			}
		}
	}
}
