package core

import (
	"bytes"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/kzg"
	"pandas/internal/transport"
	"pandas/internal/wire"
)

// forgedIDs names cells a peer can put in a Query that no honest node
// would: on a line the node custodies but past the end of it, and outside
// the matrix altogether.
func forgedIDs(node *Node, table *Table) []blob.CellID {
	a := table.Assignment(node.Index())
	return []blob.CellID{
		{Row: a.Rows[0], Col: 60000},
		{Row: 60000, Col: a.Cols[0]},
		{Row: a.Rows[0], Col: uint16(node.cfg.Blob.N())},
		{Row: 60000, Col: 60000},
	}
}

// TestQueryOutOfRangeCellIgnored is the regression test for the remote
// crash: a Query naming (custody row, col >= N) indexed the row's bitmap
// unchecked and panicked the node. Out-of-range cells are not held and not
// covered: nothing is served, nothing buffered.
func TestQueryOutOfRangeCellIgnored(t *testing.T) {
	for _, real := range []bool{false, true} {
		cfg := TestConfig()
		cfg.RealPayloads = real
		node, table, tr, _ := nodeFixture(t, 20)
		node.cfg = cfg
		node.StartSlot(1)
		for _, id := range forgedIDs(node, table) {
			s := node.Store()
			if s.Has(id) || s.Covered(id) {
				t.Fatalf("real=%v: store claims %v", real, id)
			}
			if _, ok := s.Peek(id); ok {
				t.Fatalf("real=%v: Peek found %v", real, id)
			}
		}
		node.HandleMessage(7, 50, &wire.Query{Slot: 1, Cells: forgedIDs(node, table)})
		if len(node.buffered) != 0 {
			t.Fatalf("real=%v: buffered a query for a cell that cannot exist", real)
		}
		for _, s := range tr.sends {
			if _, ok := s.payload.(*wire.Response); ok {
				t.Fatalf("real=%v: answered a forged query", real)
			}
		}
	}
}

// TestForgedQueryOverUDP sends the same forged Query as a datagram to a
// node hosted on a loopback endpoint, then a well-formed one: the node
// must still be there to answer it.
func TestForgedQueryOverUDP(t *testing.T) {
	node, table, _, cfg := nodeFixture(t, 20)
	ep, err := transport.NewUDP(0, "127.0.0.1:0", cfg.Blob.CellBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	peer, err := transport.NewUDP(1, "127.0.0.1:0", cfg.Blob.CellBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	addrs := []string{ep.Addr(), peer.Addr()}
	for _, e := range []*transport.UDP{ep, peer} {
		if err := e.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	node.tr = ep
	held := cellOnLine(table.Assignment(0).Lines()[0], 0)
	handled := make(chan struct{}, 4)
	ep.Start(func(from, size int, payload any) {
		node.HandleMessage(from, size, payload)
		handled <- struct{}{}
	})
	answered := make(chan int, 1)
	peer.Start(func(from, size int, payload any) {
		if r, ok := payload.(*wire.Response); ok {
			answered <- len(r.Cells)
		}
	})
	ep.Run(func() {
		node.StartSlot(1)
		node.store.Add(wire.Cell{ID: held})
	})

	forged := &wire.Query{Slot: 1, Cells: forgedIDs(node, table)}
	peer.Send(0, forged.WireSize(cfg.Blob.CellBytes), forged)
	honest := &wire.Query{Slot: 1, Cells: []blob.CellID{held}}
	peer.Send(0, honest.WireSize(cfg.Blob.CellBytes), honest)
	for i := 0; i < 2; i++ {
		select {
		case <-handled:
		case <-time.After(5 * time.Second):
			t.Fatal("node stopped handling datagrams")
		}
	}
	select {
	case n := <-answered:
		if n != 1 {
			t.Fatalf("honest query answered with %d cells", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("honest query never answered")
	}
}

// receiveFixture is a verifying real-payload node together with the blob
// its seeds come from: a builder over a capturing transport prepares a
// blob and seeds one slot, and the node gets the proposer's key.
type receiveFixture struct {
	cfg     Config
	node    *Node
	table   *Table
	builder *Builder
	seeds   []*wire.Seed // the builder's datagrams for node 0, slot 1
}

func newReceiveFixture(tb testing.TB, cfg Config, nodes int) *receiveFixture {
	tb.Helper()
	cfg.RealPayloads = true
	builder, table, capture := builderFixture(tb, cfg, nodes)
	proposer := ids.NewTestIdentity(1000)
	builderID := ids.NewTestIdentity(999).ID // builderFixture's
	builder.SetProposerSigner(func(slot uint64) (sig [wire.SigSize]byte) {
		copy(sig[:], proposer.Sign(wire.SeedSigningBytes(slot, builderID)))
		return sig
	})
	data := make([]byte, cfg.Blob.BlobBytes())
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := builder.PrepareBlob(data); err != nil {
		tb.Fatal(err)
	}
	builder.SeedSlot(1)
	f := &receiveFixture{cfg: cfg, table: table, builder: builder}
	for _, s := range capture.sends {
		if m, ok := s.payload.(*wire.Seed); ok && s.to == 0 {
			f.seeds = append(f.seeds, m)
		}
	}
	if len(f.seeds) == 0 {
		tb.Fatal("builder seeded node 0 nothing")
	}
	f.node = NewNode(cfg, 0, table, &captureTransport{}, 11)
	f.node.SetSeedVerification(proposer.Public)
	return f
}

// overTheWire encodes m and decodes it in place over the returned buffer,
// as a transport does: the message's payloads alias buf and are Borrowed.
func overTheWire(tb testing.TB, m wire.Message, cellBytes int) (wire.Message, []byte) {
	tb.Helper()
	buf, err := wire.Encode(m, cellBytes)
	if err != nil {
		tb.Fatal(err)
	}
	got, err := wire.Decode(buf, cellBytes)
	if err != nil {
		tb.Fatal(err)
	}
	return got, buf
}

// TestDecodedCellsSurviveBufferReuse pins the borrow contract end to end:
// cells decoded in place and handed to Node.HandleMessage are still intact
// in the store — the ones that arrived and the ones reconstructed from
// them — after the datagram's buffer has been overwritten.
func TestDecodedCellsSurviveBufferReuse(t *testing.T) {
	f := newReceiveFixture(t, TestConfig(), 20)
	f.node.StartSlot(1)
	cb := f.cfg.Blob.CellBytes
	for _, s := range f.seeds {
		m, buf := overTheWire(t, s, cb)
		if cells := m.(*wire.Seed).Cells; len(cells) > 0 && !cells[0].Borrowed {
			t.Fatal("decoded cell not marked Borrowed")
		}
		f.node.HandleMessage(20, len(buf)+wire.OverheadIPUDP, m)
		for i := range buf {
			buf[i] = 0xAA
		}
	}
	// Whatever the seeds left missing arrives in a response.
	var rest []wire.Cell
	for _, l := range f.table.Assignment(0).Lines() {
		for _, pos := range f.node.store.MissingOnLine(l, nil) {
			c, _ := f.builder.CellPayload(cellOnLine(l, pos))
			rest = append(rest, c)
		}
	}
	for len(rest) > 0 {
		chunk := rest[:min(len(rest), wire.MaxCellsPerMessage)]
		rest = rest[len(chunk):]
		m, buf := overTheWire(t, &wire.Response{Slot: 1, Cells: chunk}, cb)
		f.node.HandleMessage(3, len(buf)+wire.OverheadIPUDP, m)
		for i := range buf {
			buf[i] = 0x55
		}
	}
	if !f.node.Metrics().Consolidated {
		t.Fatal("node did not consolidate")
	}
	if f.node.Metrics().CorruptRejects != 0 {
		t.Fatalf("%d builder cells rejected", f.node.Metrics().CorruptRejects)
	}
	com := f.builder.Commitment()
	for _, l := range f.table.Assignment(0).Lines() {
		for pos := 0; pos < f.cfg.Blob.N(); pos++ {
			id := cellOnLine(l, pos)
			want, _ := f.builder.CellPayload(id)
			got, ok := f.node.store.Peek(id)
			if !ok || !bytes.Equal(got.Data, want.Data) || !kzg.Verify(com, id, got.Data, got.Proof) {
				t.Fatalf("cell %v did not survive its datagram's buffer", id)
			}
		}
	}
}

// TestStoreCopiesBorrowedPayloadOnInsertOnly: a Borrowed payload is copied
// when, and only when, the cell is inserted; a payload the sender owns —
// every message the simulator passes by reference — is shared, never
// copied.
func TestStoreCopiesBorrowedPayloadOnInsertOnly(t *testing.T) {
	p := testStoreParams()
	s := NewStore(p, testAssignment(), true, false)
	owned := bytes.Repeat([]byte{1}, p.CellBytes)
	id := blob.CellID{Row: 1, Col: 3}
	if _, err := s.Add(wire.Cell{ID: id, Data: owned}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Peek(id); &got.Data[0] != &owned[0] {
		t.Fatal("store copied a payload it was given")
	}
	if len(s.pay.arena) != 0 {
		t.Fatal("arena used for an owned payload")
	}

	lent := bytes.Repeat([]byte{2}, p.CellBytes)
	for _, id := range []blob.CellID{{Row: 1, Col: 4}, {Row: 12, Col: 13}} { // custody, extra
		if _, err := s.Add(wire.Cell{ID: id, Data: lent, Borrowed: true}); err != nil {
			t.Fatal(err)
		}
		got, _ := s.Peek(id)
		if &got.Data[0] == &lent[0] || got.Borrowed {
			t.Fatalf("cell %v: store kept a borrowed payload", id)
		}
	}
	used := len(s.pay.arena)
	if used != 2*p.CellBytes {
		t.Fatalf("arena holds %d bytes after two inserts", used)
	}
	// A duplicate costs no copy.
	if added, _ := s.Add(wire.Cell{ID: blob.CellID{Row: 1, Col: 4}, Data: lent, Borrowed: true}); added || len(s.pay.arena) != used {
		t.Fatal("duplicate was copied")
	}
	lent[0] = 9
	if got, _ := s.Peek(blob.CellID{Row: 1, Col: 4}); got.Data[0] != 2 {
		t.Fatal("stored payload changed with the lender's buffer")
	}
	// The arena is kept across Reset and rewound.
	arena := cap(s.pay.arena)
	s.Reset(testAssignment(), true, false)
	if len(s.pay.arena) != 0 || cap(s.pay.arena) != arena {
		t.Fatal("Reset did not keep and rewind the arena")
	}
}

// udpLocalConfig is the geometry of bench/'s udp_local workload.
func udpLocalConfig() Config {
	cfg := DefaultConfig()
	cfg.Blob = blob.Params{K: 32, CellBytes: 512, ProofBytes: 48}
	cfg.Assign.Rows, cfg.Assign.Cols, cfg.Assign.N = 4, 4, cfg.Blob.N()
	cfg.Samples = 16
	return cfg
}

// BenchmarkHandleSeedBatch feeds a node its captured seed batch the way a
// socket delivers it — decoded in place, payloads borrowed — one slot per
// iteration: proposer signature once, a proof check and a copy per cell,
// reconstruction of the lines that cross half, the first fetch round.
func BenchmarkHandleSeedBatch(b *testing.B) {
	f := newReceiveFixture(b, udpLocalConfig(), 128)
	cb := f.cfg.Blob.CellBytes
	var msgs []wire.Message
	var sizes []int
	cells := 0
	for _, s := range f.seeds {
		m, buf := overTheWire(b, s, cb)
		msgs, sizes = append(msgs, m), append(sizes, len(buf)+wire.OverheadIPUDP)
		cells += len(s.Cells)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.node.StartSlot(1)
		for j, m := range msgs {
			f.node.HandleMessage(128, sizes[j], m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}

// BenchmarkHandleResponses feeds a seeded node full 96-cell responses at
// the mix measured on udp_local: 46 % of the cells are byte-identical
// copies of what the node holds, the rest are cells it is missing (until a
// reconstruction gets there first). One slot per iteration; the seed batch
// is ingested off the clock.
func BenchmarkHandleResponses(b *testing.B) {
	f := newReceiveFixture(b, udpLocalConfig(), 128)
	cb := f.cfg.Blob.CellBytes
	ingest := func() {
		f.node.StartSlot(1)
		for _, s := range f.seeds {
			f.node.HandleMessage(128, s.WireSize(cb), s)
		}
	}
	ingest()
	var held, missing []wire.Cell
	for _, l := range f.table.Assignment(0).Lines() {
		for pos := 0; pos < f.cfg.Blob.N(); pos++ {
			c, _ := f.builder.CellPayload(cellOnLine(l, pos))
			if f.node.store.Has(c.ID) {
				held = append(held, c)
			} else {
				missing = append(missing, c)
			}
		}
	}
	const dups = wire.MaxCellsPerMessage * 46 / 100
	var msgs []wire.Message
	var sizes []int
	cells := 0
	for h := 0; len(missing) > 0; {
		r := &wire.Response{Slot: 1}
		for i := 0; i < dups; i++ {
			r.Cells = append(r.Cells, held[h%len(held)])
			h++
		}
		fresh := missing[:min(len(missing), wire.MaxCellsPerMessage-dups)]
		missing = missing[len(fresh):]
		r.Cells = append(r.Cells, fresh...)
		m, buf := overTheWire(b, r, cb)
		msgs, sizes = append(msgs, m), append(sizes, len(buf)+wire.OverheadIPUDP)
		cells += len(r.Cells)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ingest()
		b.StartTimer()
		for j, m := range msgs {
			f.node.HandleMessage(1+j%100, sizes[j], m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}
