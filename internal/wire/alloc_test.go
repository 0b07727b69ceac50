package wire

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/kzg"
)

// forgedCounts returns short datagrams whose headers declare far more
// elements than they carry — the cheapest way to make a decoder that
// sizes its slices from the header allocate.
func forgedCounts() [][]byte {
	header := func(typ MsgType) []byte {
		return binary.BigEndian.AppendUint64([]byte{byte(typ)}, 1)
	}
	count := func(b []byte, n uint32) []byte { return binary.BigEndian.AppendUint32(b, n) }
	seed := append(header(TypeSeed), make([]byte, ids.IDSize+SigSize+kzg.CommitmentSize+4)...)
	oneCell := make([]byte, CellWire(testCellBytes))
	return [][]byte{
		count(header(TypeQuery), 65536),
		count(header(TypeQuery), 1<<32-1),
		count(header(TypeResponse), 4096),
		append(count(header(TypeResponse), 4096), oneCell...), // one cell short of 4,096
		count(seed, 4096),
		count(count(seed, 0), 65536), // no cells, 65,536 boost runs
		count(count(seed, 0), 1<<32-1),
		// One run of a line that claims 1,000 parcels and holds one.
		append(count(count(seed, 0), 1), byte(blob.Row), 0, 1, 0, 0, 0x03, 0xe8, 1, 1, 1, 0),
		// A run whose parcels claim 255 holders with 2 bytes left.
		append(count(count(seed, 0), 1), byte(blob.Row), 0, 1, 0, 0, 0, 1, 255, 1, 0, 0),
	}
}

// TestDecodeForgedCountsCostNothing: a header that lies about its counts
// is rejected before anything is sized from it. The copying decoder
// allocated min(count, 4096) cells x 88 B (or 65,536 boost entries or IDs)
// first, so a ~150-byte Seed cost ~1 MB. The boost section's run,
// parcel and holder counts are each checked against the bytes behind
// them.
func TestDecodeForgedCountsCostNothing(t *testing.T) {
	var in Inbox
	for i, data := range forgedCounts() {
		if _, err := DecodeInto(&in, data, testCellBytes); !errors.Is(err, ErrTruncated) {
			t.Fatalf("datagram %d: err = %v, want ErrTruncated", i, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = DecodeInto(&in, data, testCellBytes) }); n != 0 {
			t.Errorf("datagram %d (%d bytes): %.0f allocations into a used Inbox", i, len(data), n)
		}
		// Into a fresh message the struct itself is all there is.
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			_, _ = Decode(data, testCellBytes)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 512 {
			t.Errorf("datagram %d (%d bytes): Decode allocates %d bytes", i, len(data), per)
		}
	}
}

// allocMessages returns a full seed datagram, a boost-only seed datagram
// packed the way the builder packs one (8 lines of 16 parcels x 8
// copies), a 32-ID query and a full 96-cell response, encoded.
func allocMessages(t testing.TB) (seed, boost, query, response []byte) {
	rng := rand.New(rand.NewSource(7))
	cells := make([]Cell, MaxCellsPerMessage)
	for i := range cells {
		cells[i] = randCell(rng)
	}
	idsOf := make([]blob.CellID, 32)
	for i := range idsOf {
		idsOf[i] = cells[i].ID
	}
	var err error
	if seed, err = Encode(&Seed{Slot: 1, ChunkCount: 1, Cells: cells,
		Boost: [][]BoostEntry{{{Line: blob.Line{Kind: blob.Row, Index: 1}, Count: 4}}}}, testCellBytes); err != nil {
		t.Fatal(err)
	}
	if boost, err = Encode(&Seed{Slot: 1, ChunkCount: 2, Boost: packedBoost(8, 16, 8)}, testCellBytes); err != nil {
		t.Fatal(err)
	}
	if query, err = Encode(&Query{Slot: 1, Cells: idsOf}, testCellBytes); err != nil {
		t.Fatal(err)
	}
	if response, err = Encode(&Response{Slot: 1, Cells: cells}, testCellBytes); err != nil {
		t.Fatal(err)
	}
	return seed, boost, query, response
}

// TestDecodeAllocations is the allocation gate of the receive path: a
// 96-cell response decodes into a fresh message with two allocations (the
// Inbox and its cell slice; the copying decoder made 98), and into a
// warm Inbox — what a transport endpoint keeps — with none, a packed
// boost map included. Encoding into
// a buffer that has the room allocates nothing either.
func TestDecodeAllocations(t *testing.T) {
	seed, boost, query, response := allocMessages(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(response, testCellBytes); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("response: Decode makes %.0f allocations, want <= 2", n)
	}
	for name, data := range map[string][]byte{"seed": seed, "boost": boost, "query": query, "response": response} {
		var in Inbox
		var msg Message
		if n := testing.AllocsPerRun(100, func() {
			var err error
			if msg, err = DecodeInto(&in, data, testCellBytes); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: DecodeInto a warm Inbox makes %.0f allocations", name, n)
		}
		buf := make([]byte, 0, len(data))
		if n := testing.AllocsPerRun(100, func() {
			if _, err := EncodeAppend(buf, msg, testCellBytes); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: EncodeAppend into a large enough buffer makes %.0f allocations", name, n)
		}
	}
}
