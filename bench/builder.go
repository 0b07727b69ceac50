package main

import (
	"fmt"
	"math/rand"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/ids"
	"pandas/internal/kzg"
	"pandas/internal/simnet"
)

// builderSlot is the builder's share of the slot: the full paper
// geometry with real payloads, extended, committed, proved and seeded
// through the streaming Builder.PrepareAndSeed into a transport that
// counts datagrams and drops them.
type builderSlot struct {
	cfg     core.Config
	builder *core.Builder
	sink    *countingSink
	data    []byte
	rng     *rand.Rand
	tr      *tracer
	nodes   int

	lastReport core.SeedingReport
}

// countingSink is a core.Transport that accepts every datagram and keeps
// only the totals and, per node, how many bytes had been sent when the
// node's latest datagram went out.
type countingSink struct {
	msgs     int
	bytes    int64
	lastByte []int64
}

func (s *countingSink) Send(to, size int, payload any) {
	s.msgs++
	s.bytes += int64(size)
	s.lastByte[to] = s.bytes
}
func (s *countingSink) SendReliable(to, size int, payload any) { s.Send(to, size, payload) }
func (s *countingSink) After(time.Duration, func())            {}
func (s *countingSink) Now() time.Duration                     { return 0 }

// testNodeIDs derives n deterministic node identities from the seed.
func testNodeIDs(seed int64, n int) []ids.NodeID {
	out := make([]ids.NodeID, n)
	for i := range out {
		out[i] = ids.NewTestIdentity(seed<<20 + int64(i)).ID
	}
	return out
}

func epochSeed(seed int64) assign.Seed {
	var s assign.Seed
	rand.New(rand.NewSource(seed ^ 0x65706f6368)).Read(s[:])
	return s
}

// geometry fixes the workload's parameters: the paper's full geometry
// (512x512 extended, 8+8 custody, r = 8) over a 1,000-node table.
func (w *builderSlot) geometry(quick bool) {
	w.cfg = core.DefaultConfig()
	w.cfg.RealPayloads = true
	w.nodes = 1000
	if quick {
		// A quarter of the cells: still long enough for the traced slot to
		// collect CPU samples.
		w.cfg.Blob = blob.Params{K: 128, CellBytes: 512, ProofBytes: 48}
		w.cfg.Assign = assign.DefaultParams(w.cfg.Blob.N())
		w.nodes = 250
	}
}

func (w *builderSlot) build(seed int64, quick bool, tr *tracer) error {
	w.tr = tr
	w.geometry(quick)
	sp := tr.begin("core.NewTable")
	table, err := core.NewTable(w.cfg.Assign, epochSeed(seed), testNodeIDs(seed, w.nodes))
	tr.end(sp)
	if err != nil {
		return err
	}
	w.sink = &countingSink{lastByte: make([]int64, w.nodes)}
	w.builder = core.NewBuilder(w.cfg, w.nodes, ids.NewTestIdentity(seed<<20+int64(w.nodes)).ID, table, w.sink, seed+5)
	w.rng = rand.New(rand.NewSource(seed))
	w.data = make([]byte, w.cfg.Blob.BlobBytes())
	w.rng.Read(w.data)
	return nil
}

// stamp makes each slot's blob distinct without refilling 32 MB.
func stamp(data []byte, slot uint64) {
	for i := 0; i < 8; i++ {
		data[i] = byte(slot >> (8 * i))
	}
}

func (w *builderSlot) runSlot(slot uint64) (slotResult, error) {
	stamp(w.data, slot)
	w.sink.msgs, w.sink.bytes = 0, 0
	clear(w.sink.lastByte)
	begin := time.Now()
	sp := w.tr.begin("core.Builder.PrepareAndSeed")
	report, err := w.builder.PrepareAndSeed(slot, w.data)
	w.tr.end(sp)
	elapsed := time.Since(begin)
	if err != nil {
		return slotResult{}, err
	}
	w.lastReport = report
	sr := slotResult{
		msgs:         float64(w.sink.msgs),
		msgBytes:     float64(w.sink.bytes),
		msgNodes:     w.nodes,
		builderBytes: report.Bytes,
		sampleMs:     make([]float64, 0, w.nodes),
	}
	// The operation is the slot: it fails if the builder needed more than
	// the whole attestation window.
	sr.opMs = []float64{ms(elapsed)}
	// There are no nodes here to sample, so the sampling times reported
	// are their floor: when each node's seed batch has left the builder,
	// were the datagrams paced by the paper's 10 Gbps uplink.
	for _, b := range w.sink.lastByte {
		sr.sampleMs = append(sr.sampleMs, float64(b)*8/simnet.BuilderBandwidth*1000)
	}
	return sr, nil
}

// verify spot-checks the slot the builder just seeded: the transport saw
// exactly the reported bytes, and 64 random cells carry proofs that
// verify against the slot's commitment.
func (w *builderSlot) verify() error {
	if w.sink.bytes != w.lastReport.Bytes || w.sink.msgs != w.lastReport.Messages {
		return fmt.Errorf("sink saw %d datagrams / %d bytes, report says %d / %d",
			w.sink.msgs, w.sink.bytes, w.lastReport.Messages, w.lastReport.Bytes)
	}
	return spotVerify(w.builder, w.cfg.Blob, w.rng, 64)
}

// spotVerify checks count random cells of the builder's prepared blob
// against its commitment.
func spotVerify(b *core.Builder, p blob.Params, rng *rand.Rand, count int) error {
	cm := b.Commitment()
	for i := 0; i < count; i++ {
		id := blob.CellIDFromIndex(rng.Intn(p.ExtendedCells()), p.N())
		c, ok := b.CellPayload(id)
		if !ok {
			return fmt.Errorf("builder holds no prepared blob")
		}
		if !kzg.Verify(cm, id, c.Data, c.Proof) {
			return fmt.Errorf("cell %v fails proof verification", id)
		}
	}
	return nil
}

// finish runs once after the measured slots. It prepares the last
// slot's data again and checks that equal data yields an equal
// commitment; on a traced run it then runs three more slots as
// PrepareBlob followed by SeedSlot — the monolithic form of
// PrepareAndSeed — under spans, so the run can report what the streaming
// form's overlap saves.
func (w *builderSlot) finish(next uint64) error {
	want := w.builder.Commitment()
	if err := w.builder.PrepareBlob(w.data); err != nil {
		return err
	}
	if got := w.builder.Commitment(); got != want {
		return fmt.Errorf("commitment changed for equal data: %x != %x", got[:8], want[:8])
	}
	if !w.tr.enabled() {
		return nil
	}
	for i := 0; i < 3; i++ {
		slot := next + uint64(i)
		stamp(w.data, slot)
		sp := w.tr.begin("core.Builder.PrepareBlob")
		err := w.builder.PrepareBlob(w.data)
		w.tr.end(sp)
		if err != nil {
			return err
		}
		sp = w.tr.begin("core.Builder.SeedSlot")
		w.builder.SeedSlot(slot)
		w.tr.end(sp)
	}
	return nil
}

func (w *builderSlot) close() {}
