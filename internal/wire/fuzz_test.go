package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/kzg"
)

// decodeCopying is the decoder as it was before decode-in-place, kept as
// the differential reference: it builds a fresh message per datagram and
// copies every cell payload out of it, so nothing it returns aliases its
// input. (Its allocate-from-the-declared-count habit is why it is not the
// decoder any more.)
func decodeCopying(data []byte, cellBytes int) (Message, error) {
	if len(data) < 9 {
		return nil, ErrTruncated
	}
	typ := MsgType(data[0])
	slot := binary.BigEndian.Uint64(data[1:9])
	r := reader{buf: data[9:]}
	cell := func() (Cell, bool) {
		need := 4 + cellBytes + kzg.ProofSize
		if len(r.buf) < need {
			return Cell{}, false
		}
		var c Cell
		c.ID.Row = binary.BigEndian.Uint16(r.buf[0:2])
		c.ID.Col = binary.BigEndian.Uint16(r.buf[2:4])
		c.Data = append([]byte(nil), r.buf[4:4+cellBytes]...)
		copy(c.Proof[:], r.buf[4+cellBytes:need])
		r.buf = r.buf[need:]
		return c, true
	}
	cells := func() ([]Cell, bool) {
		n, ok := r.uint32()
		if !ok {
			return nil, false
		}
		out := make([]Cell, 0, min(int(n), 4096))
		for i := 0; i < int(n); i++ {
			c, ok := cell()
			if !ok {
				return nil, false
			}
			out = append(out, c)
		}
		return out, true
	}
	switch typ {
	case TypeSeed:
		m := &Seed{Slot: slot}
		if !r.bytes(m.Builder[:]) || !r.bytes(m.ProposerSig[:]) || !r.bytes(m.Commitment[:]) || len(r.buf) < 4 {
			return nil, ErrTruncated
		}
		m.ChunkIndex = binary.BigEndian.Uint16(r.buf[0:2])
		m.ChunkCount = binary.BigEndian.Uint16(r.buf[2:4])
		r.buf = r.buf[4:]
		var ok bool
		if m.Cells, ok = cells(); !ok {
			return nil, ErrTruncated
		}
		var err error
		if m.Boost, err = boostCopying(&r); err != nil {
			return nil, err
		}
		return m, nil
	case TypeQuery:
		m := &Query{Slot: slot}
		n, ok := r.uint32()
		if !ok {
			return nil, ErrTruncated
		}
		m.Cells = make([]blob.CellID, 0, min(int(n), 65536))
		for i := 0; i < int(n); i++ {
			if len(r.buf) < 4 {
				return nil, ErrTruncated
			}
			m.Cells = append(m.Cells, blob.CellID{
				Row: binary.BigEndian.Uint16(r.buf[0:2]),
				Col: binary.BigEndian.Uint16(r.buf[2:4]),
			})
			r.buf = r.buf[4:]
		}
		return m, nil
	case TypeResponse:
		m := &Response{Slot: slot}
		var ok bool
		if m.Cells, ok = cells(); !ok {
			return nil, ErrTruncated
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
}

// boostCopying is the reference reading of a Seed's boost section: a
// fresh slice per run, entries appended one parcel at a time, a count's
// varint read a byte at a time. Like the decoder it refuses a count its
// bytes cannot hold before reading what the count declares, so the two
// agree on which error a datagram earns.
func boostCopying(r *reader) ([][]BoostEntry, error) {
	nRuns, ok := r.uint32()
	if !ok || int64(nRuns)*minBoostRun > int64(len(r.buf)) {
		return nil, ErrTruncated
	}
	var runs [][]BoostEntry
	for i := 0; i < int(nRuns); i++ {
		if len(r.buf) < 9 {
			return nil, ErrTruncated
		}
		line := blob.Line{Kind: blob.LineKind(r.buf[0]), Index: binary.BigEndian.Uint16(r.buf[1:3])}
		start := int(binary.BigEndian.Uint16(r.buf[3:5]))
		parcels := int(binary.BigEndian.Uint16(r.buf[5:7]))
		holders, width := int(r.buf[7]), int(r.buf[8])
		r.buf = r.buf[9:]
		if parcels == 0 {
			return nil, fmt.Errorf("%w: empty run", ErrBadBoost)
		}
		if holders == 0 {
			return nil, fmt.Errorf("%w: no holders", ErrBadBoost)
		}
		if width != 1 && width != 2 {
			return nil, fmt.Errorf("%w: rank width %d", ErrBadBoost, width)
		}
		if parcels*(1+holders*width) > len(r.buf) {
			return nil, ErrTruncated
		}
		var run []BoostEntry
		wide := false
		for p := 0; p < parcels; p++ {
			// The count: seven bits a byte, low first, the high bit set on
			// every byte but the last.
			var count uint64
			n := 0
			for {
				if n == len(r.buf) {
					return nil, ErrTruncated
				}
				b := r.buf[n]
				if n == 10 || n == 9 && b > 1 && b < 0x80 { // past 64 bits
					return nil, fmt.Errorf("%w: overlong count", ErrBadBoost)
				}
				count |= uint64(b&0x7f) << (7 * n)
				n++
				if b < 0x80 {
					if n > 1 && b == 0 {
						return nil, fmt.Errorf("%w: overlong count", ErrBadBoost)
					}
					break
				}
			}
			if count == 0 {
				return nil, fmt.Errorf("%w: zero count", ErrBadBoost)
			}
			if uint64(start)+count > 65535 {
				return nil, fmt.Errorf("%w: parcel past 65535", ErrBadBoost)
			}
			r.buf = r.buf[n:]
			for h := 0; h < holders; h++ {
				if len(r.buf) < width {
					return nil, ErrTruncated
				}
				rank := uint16(r.buf[0])
				if width == 2 {
					rank = binary.BigEndian.Uint16(r.buf[0:2])
				}
				wide = wide || rank >= 256
				run = append(run, BoostEntry{Line: line, HolderRef: rank, Start: uint16(start), Count: uint16(count)})
				r.buf = r.buf[width:]
			}
			start += int(count)
		}
		if width == 2 && !wide {
			return nil, fmt.Errorf("%w: 2-byte ranks all below 256", ErrBadBoost)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// cellsOf returns the cells a protocol message carries.
func cellsOf(m Message) []Cell {
	switch v := m.(type) {
	case *Seed:
		return v.Cells
	case *Response:
		return v.Cells
	}
	return nil
}

// sameMessage compares a decoded message with the reference's, ignoring
// what is not on the wire (Borrowed) and nil-versus-empty slices.
func sameMessage(got, want Message) error {
	if got.Type() != want.Type() {
		return fmt.Errorf("type %d, reference %d", got.Type(), want.Type())
	}
	g, w := cellsOf(got), cellsOf(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d cells, reference %d", len(g), len(w))
	}
	for i := range g {
		if g[i].ID != w[i].ID || g[i].Proof != w[i].Proof || !bytes.Equal(g[i].Data, w[i].Data) || g[i].Tainted {
			return fmt.Errorf("cell %d differs from the reference", i)
		}
	}
	switch v := got.(type) {
	case *Seed:
		r := want.(*Seed)
		if v.Slot != r.Slot || v.Builder != r.Builder || v.ProposerSig != r.ProposerSig || v.Commitment != r.Commitment ||
			v.ChunkIndex != r.ChunkIndex || v.ChunkCount != r.ChunkCount || !sameRuns(v.Boost, r.Boost) {
			return fmt.Errorf("seed fields differ from the reference")
		}
	case *Query:
		r := want.(*Query)
		if v.Slot != r.Slot || !slices.Equal(v.Cells, r.Cells) {
			return fmt.Errorf("query differs from the reference")
		}
	case *Response:
		if v.Slot != want.(*Response).Slot {
			return fmt.Errorf("response slot differs from the reference")
		}
	}
	return nil
}

// FuzzDecode exercises the datagram decoder with arbitrary inputs. It
// must never panic, and on every input:
//   - it agrees with the copying reference decoder, error for error and
//     field for field, both into a fresh message and into an Inbox that
//     has decoded every earlier input;
//   - its cell payloads are the datagram's own bytes (in place, marked
//     Borrowed, clipped so that an append cannot reach the next cell), and
//     it never touches a byte past the datagram's end;
//   - a type byte other than Seed, Query or Response behind a full header,
//     a retired one included, is ErrBadType;
//   - what it accepts re-encodes to the bytes it was decoded from, and
//     decode/encode/decode is a fixpoint.
func FuzzDecode(f *testing.F) {
	// Seed corpus: one valid message of each type plus junk.
	q := &Query{Slot: 3, Cells: make([]blob.CellID, 2)}
	if data, err := Encode(q, 64); err == nil {
		f.Add(data)
	}
	r := &Response{Slot: 4, Cells: []Cell{{Data: make([]byte, 64)}}}
	if data, err := Encode(r, 64); err == nil {
		f.Add(data)
	}
	s := &Seed{Slot: 5, ChunkCount: 1}
	if data, err := Encode(s, 64); err == nil {
		f.Add(data)
	}
	// A boost-only datagram as the builder packs it: several lines, each
	// one run of parcels.
	s = &Seed{Slot: 6, ChunkCount: 2, Boost: packedBoost(3, 4, 3)}
	if data, err := Encode(s, 64); err == nil {
		f.Add(data)
	}
	// The type bytes that must stay rejected.
	for _, data := range retiredDatagrams(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// The golden messages, each also one byte short, and headers that
	// declare more than they carry.
	for _, g := range goldenMessages() {
		if data, err := Encode(g.msg, goldenCellBytes); err == nil {
			f.Add(data)
			f.Add(data[:len(data)-1])
		}
	}
	for _, data := range forgedCounts() {
		f.Add(data)
	}

	var reused Inbox
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode a private copy that ends where its capacity ends and sits
		// in front of a canary: reaching past the datagram would panic or
		// show.
		backing := append(bytes.Clone(data), 0xC4, 0xC4, 0xC4, 0xC4)
		buf := backing[:len(data):len(data)]
		ref, refErr := decodeCopying(data, 64)
		msg, err := Decode(buf, 64)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("Decode error %v, reference %v", err, refErr)
		}
		again, err2 := DecodeInto(&reused, buf, 64)
		if fmt.Sprint(err2) != fmt.Sprint(refErr) {
			t.Fatalf("DecodeInto error %v, reference %v", err2, refErr)
		}
		if !bytes.Equal(backing[:len(data)], data) || !bytes.Equal(backing[len(data):], []byte{0xC4, 0xC4, 0xC4, 0xC4}) {
			t.Fatal("decoding wrote to the datagram or past it")
		}
		if len(data) >= 9 && (data[0] < byte(TypeSeed) || data[0] > byte(TypeResponse)) && !errors.Is(err, ErrBadType) {
			t.Fatalf("type byte %d: err %v, want ErrBadType", data[0], err)
		}
		if err != nil {
			return
		}
		if err := sameMessage(msg, ref); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if err := sameMessage(again, ref); err != nil {
			t.Fatalf("DecodeInto a used Inbox: %v", err)
		}
		// In place: inverting the datagram inverts every decoded payload.
		for i := range buf {
			buf[i] = ^buf[i]
		}
		for i, c := range cellsOf(msg) {
			inv := bytes.Clone(cellsOf(ref)[i].Data)
			for j := range inv {
				inv[j] = ^inv[j]
			}
			if !c.Borrowed || cap(c.Data) != len(c.Data) || !bytes.Equal(c.Data, inv) {
				t.Fatalf("cell %d: payload is not a clipped, Borrowed view of the datagram", i)
			}
		}

		re, err := Encode(ref, 64)
		if err != nil {
			// Oversized reconstructions can legitimately exceed the
			// datagram cap; anything else is a bug.
			return
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("re-encoding differs from the bytes decoded")
		}
		msg2, err := Decode(re, 64)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2, err := Encode(msg2, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("encode/decode not a fixpoint")
		}
	})
}
