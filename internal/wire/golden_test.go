package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/ids"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encodings/*.hex from the current encoder")

// goldenCellBytes keeps the pinned datagrams short enough to read.
const goldenCellBytes = 32

// goldenMessage is one pinned message and the name of its file.
type goldenMessage struct {
	name string
	msg  Message
}

// goldenMessages returns one Seed, one Query and one Response with every
// field populated, from fixed seeds. (findpeers.hex and peers.hex beside
// their files are retired types, kept as fixtures: retired_test.go.)
func goldenMessages() []goldenMessage {
	rng := rand.New(rand.NewSource(23))
	cell := func() Cell {
		c := Cell{ID: blob.CellID{Row: uint16(rng.Intn(512)), Col: uint16(rng.Intn(512))}}
		c.Data = make([]byte, goldenCellBytes)
		rng.Read(c.Data)
		rng.Read(c.Proof[:])
		return c
	}
	seed := &Seed{Slot: 0x0102030405060708, Builder: ids.NewTestIdentity(23).ID, ChunkIndex: 2, ChunkCount: 5}
	rng.Read(seed.ProposerSig[:])
	rng.Read(seed.Commitment[:])
	seed.Cells = []Cell{cell(), cell(), {ID: blob.CellID{Row: 511, Col: 0}}} // the last is a metadata cell
	seed.Boost = []BoostEntry{
		{Line: blob.Line{Kind: blob.Row, Index: 7}, HolderRef: 3, Start: 0, Count: 12},
		{Line: blob.Line{Kind: blob.Col, Index: 500}, HolderRef: 90, Start: 256, Count: 8},
	}
	return []goldenMessage{
		{"seed", seed},
		{"query", &Query{Slot: 9, Cells: []blob.CellID{{Row: 1, Col: 2}, {Row: 511, Col: 510}, {Row: 0, Col: 65535}}}},
		{"response", &Response{Slot: 10, Cells: []Cell{cell(), cell()}}},
	}
}

// TestGoldenEncodings pins the bytes on the socket: the encodings of one
// Seed, one Query and one Response are compared with files recorded from
// the encoder as it was before the receive path was rebuilt, so "wire
// bytes unchanged" is a diff, and the files decode back to the messages.
func TestGoldenEncodings(t *testing.T) {
	for _, g := range goldenMessages() {
		name, m := g.name, g.msg
		got, err := Encode(m, goldenCellBytes)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "encodings", name+".hex")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(hexLines(got)), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := readHex(t, path)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding changed:\n%s", name, hexLines(got))
		}
		if len(got) != m.WireSize(goldenCellBytes)-OverheadIPUDP {
			t.Errorf("%s: %d bytes encoded, WireSize says %d", name, len(got), m.WireSize(goldenCellBytes)-OverheadIPUDP)
		}
		// Appending to a used buffer writes the same bytes behind it.
		pre := []byte("prefix")
		if buf, err := EncodeAppend(pre, m, goldenCellBytes); err != nil || !bytes.Equal(buf[len(pre):], want) || !bytes.HasPrefix(buf, pre) {
			t.Errorf("%s: EncodeAppend differs from Encode (%v)", name, err)
		}
		back, err := Decode(want, goldenCellBytes)
		if err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", name, err)
		}
		if again, err := Encode(back, goldenCellBytes); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s: golden bytes do not survive decode and re-encode (%v)", name, err)
		}
	}
}

// hexLines formats b as lines of 32 bytes.
func hexLines(b []byte) string {
	var sb strings.Builder
	for len(b) > 0 {
		n := min(len(b), 32)
		sb.WriteString(hex.EncodeToString(b[:n]))
		sb.WriteByte('\n')
		b = b[n:]
	}
	return sb.String()
}
