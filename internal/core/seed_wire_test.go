package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/wire"
)

// encodingTransport encodes and decodes every seed datagram as it is
// handed over and keeps only what the checks need: per recipient the
// boost entries it decoded, and the entries the builder sent.
type encodingTransport struct {
	t         *testing.T
	cellBytes int
	buf       []byte
	in        wire.Inbox
	sent      map[wire.BoostEntry]bool
	decoded   map[int][]wire.BoostEntry
	datagrams int
}

func (e *encodingTransport) Send(to, size int, payload any) {
	e.t.Helper()
	m := payload.(*wire.Seed)
	var err error
	if e.buf, err = wire.EncodeAppend(e.buf[:0], m, e.cellBytes); err != nil {
		e.t.Fatalf("datagram to %d: %v", to, err)
	}
	if size != wire.OverheadIPUDP+len(e.buf) {
		e.t.Fatalf("datagram to %d: handed over as %d bytes, encodes to %d + %d", to, size, wire.OverheadIPUDP, len(e.buf))
	}
	msg, err := wire.DecodeInto(&e.in, e.buf, e.cellBytes)
	if err != nil {
		e.t.Fatalf("datagram to %d does not decode: %v", to, err)
	}
	got := msg.(*wire.Seed)
	if !slices.EqualFunc(got.Boost, m.Boost, func(a, b []wire.BoostEntry) bool { return slices.Equal(a, b) }) {
		e.t.Fatalf("datagram to %d: decoded boost runs differ from those sent", to)
	}
	if !slices.EqualFunc(got.Cells, m.Cells, func(a, b wire.Cell) bool {
		return a.ID == b.ID && a.Proof == b.Proof && (b.Data == nil || string(a.Data) == string(b.Data))
	}) || got.ChunkIndex != m.ChunkIndex || got.ChunkCount != m.ChunkCount {
		e.t.Fatalf("datagram to %d: decoded cells or chunk markers differ from those sent", to)
	}
	for _, run := range m.Boost {
		for _, b := range run {
			e.sent[b] = true
		}
	}
	for _, run := range got.Boost {
		e.decoded[to] = append(e.decoded[to], run...)
	}
	e.datagrams++
}

func (e *encodingTransport) SendReliable(to, size int, payload any) { e.Send(to, size, payload) }
func (e *encodingTransport) After(time.Duration, func())            {}
func (e *encodingTransport) Now() time.Duration                     { return 0 }

// TestSeedSizesMatchEncoding pins the seed class of the size accounting:
// every datagram SeedSlot and PrepareAndSeed hand to the transport is
// charged exactly the bytes it encodes to plus the IP/UDP header, and
// decodes back to the boost runs and cells that were sent. Per node, the
// decoded entries are exactly the builder's map of the lines it holds —
// the entries TestBuilderBoostMapIsExact checks against the cells sent —
// each once. It covers every policy and builder setup (withholding splits
// parcels into several runs, a restricted view remaps ranks) with
// metadata and real payloads at the test geometry, and with metadata at
// the paper's over 1,000 nodes for one slot (real payloads encode the
// same sizes).
func TestSeedSizesMatchEncoding(t *testing.T) {
	data := make([]byte, TestConfig().Blob.BlobBytes())
	rand.New(rand.NewSource(42)).Read(data)
	check := func(t *testing.T, cfg Config, nodes, slots int, setup func(*Builder), real bool) {
		b, table, _ := builderFixture(t, cfg, nodes)
		b.SetProposerSigner(testSigner)
		setup(b)
		tr := &encodingTransport{t: t, cellBytes: cfg.Blob.CellBytes,
			sent: make(map[wire.BoostEntry]bool), decoded: make(map[int][]wire.BoostEntry)}
		b.tr = tr
		for slot := uint64(1); slot <= uint64(slots); slot++ {
			clear(tr.sent)
			clear(tr.decoded)
			tr.datagrams = 0
			var report SeedingReport
			if real {
				var err error
				if report, err = b.PrepareAndSeed(slot, data); err != nil {
					t.Fatal(err)
				}
			} else {
				report = b.SeedSlot(slot)
			}
			if report.Messages != tr.datagrams {
				t.Fatalf("slot %d: report counts %d datagrams, the transport saw %d", slot, report.Messages, tr.datagrams)
			}
			perLine := make(map[blob.Line]int)
			for e := range tr.sent {
				perLine[e.Line]++
			}
			for node := 0; node < table.NumNodes(); node++ {
				a := table.Assignment(node)
				want := 0
				if b.view == nil || b.view.Contains(node) {
					for _, l := range a.Lines() {
						want += perLine[l]
					}
				}
				got := tr.decoded[node]
				seen := make(map[wire.BoostEntry]bool, len(got))
				for _, e := range got {
					if !tr.sent[e] || !a.HasLine(e.Line) || seen[e] {
						t.Fatalf("slot %d node %d: decoded entry %+v is not the map of its lines, or repeats", slot, node, e)
					}
					seen[e] = true
				}
				if len(got) != want {
					t.Fatalf("slot %d node %d: decoded %d entries, the map of its lines has %d", slot, node, len(got), want)
				}
			}
		}
	}
	for _, policy := range []Policy{PolicyMinimal, PolicySingle, PolicyRedundant} {
		for _, s := range builderSetups {
			for _, real := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%s/real=%v", policy, s.name, real), func(t *testing.T) {
					cfg := TestConfig()
					cfg.Policy = policy
					cfg.RealPayloads = real
					check(t, cfg, 80, 2, s.apply, real) // slot 2 reuses every arena
				})
			}
			t.Run(fmt.Sprintf("paper-geometry/%v/%s", policy, s.name), func(t *testing.T) {
				if raceEnabled {
					t.Skip("the test geometry covers transmit's workers under the race detector")
				}
				cfg := DefaultConfig()
				cfg.Policy = policy
				check(t, cfg, 1000, 1, s.apply, false)
			})
		}
	}
}

// seedDatagramSize is one planned datagram's cells and wire size.
type seedDatagramSize struct{ cells, size int }

// seedEgress is a seeding schedule's builder egress by class: cell
// records, consolidation-boost map and datagram headers (the fixed Seed
// fields and IP/UDP), in wire bytes.
type seedEgress struct {
	datagrams, nodes  int
	cells, cb, header int64
	// beforeFirstCell is what transmit's order (chunk 0 of every node,
	// then chunk 1, ...) sends before the first datagram with cells.
	beforeFirstCell int64
}

func (e seedEgress) total() int64 { return e.cells + e.cb + e.header }

// egressOf sums a plan's datagrams by class, in transmit's order; sizes
// gives a node's datagrams in the order it sends them.
func egressOf(plan seedPlan, cellBytes int, sizes func(nodeSeedChunks) []seedDatagramSize) seedEgress {
	header := (&wire.Seed{}).WireSize(cellBytes)
	record := (&wire.Seed{Cells: make([]wire.Cell, 1)}).WireSize(cellBytes) - header
	e := seedEgress{nodes: len(plan.nodes)}
	perNode := make([][]seedDatagramSize, len(plan.nodes))
	passes := 0
	for i, nc := range plan.nodes {
		perNode[i] = sizes(nc)
		passes = max(passes, len(perNode[i]))
	}
	cellSent := false
	for pass := 0; pass < passes; pass++ {
		for _, ds := range perNode {
			if pass >= len(ds) {
				continue
			}
			d := ds[pass]
			cellSent = cellSent || d.cells > 0
			if !cellSent {
				e.beforeFirstCell += int64(d.size)
			}
			e.datagrams++
			e.header += int64(header)
			e.cells += int64(d.cells * record)
			e.cb += int64(d.size - header - d.cells*record)
		}
	}
	return e
}

// packedSizes are a node's datagrams as planSeed packs them.
func packedSizes(cellBytes int) func(nodeSeedChunks) []seedDatagramSize {
	record := (&wire.Seed{Cells: make([]wire.Cell, 1)}).WireSize(cellBytes) - (&wire.Seed{}).WireSize(cellBytes)
	return func(nc nodeSeedChunks) []seedDatagramSize {
		out := make([]seedDatagramSize, len(nc.chunks))
		for i, c := range nc.chunks {
			out[i] = seedDatagramSize{len(c.cellIDs), (&wire.Seed{Boost: c.boost}).WireSize(cellBytes) + len(c.cellIDs)*record}
		}
		return out
	}
}

// perLineSizes are a node's datagrams under the layout planSeed replaced:
// one boost-only datagram per held line (up to 4,096 entries), each entry
// encoded whole at 9 bytes (line kind and index, holder, start, count),
// then the same cell datagrams.
func perLineSizes(cellBytes int) func(nodeSeedChunks) []seedDatagramSize {
	const entryWire, perDatagram = 9, 4096
	header := (&wire.Seed{}).WireSize(cellBytes)
	packed := packedSizes(cellBytes)
	return func(nc nodeSeedChunks) []seedDatagramSize {
		var lines []int // entries per line: runs on one line are joined
		var last blob.Line
		for _, c := range nc.chunks {
			for _, run := range c.boost {
				if len(lines) > 0 && run[0].Line == last {
					lines[len(lines)-1] += len(run)
				} else {
					lines = append(lines, len(run))
				}
				last = run[0].Line
			}
		}
		var out []seedDatagramSize
		for _, n := range lines {
			for ; n > 0; n -= perDatagram {
				out = append(out, seedDatagramSize{0, header + entryWire*min(n, perDatagram)})
			}
		}
		for i, d := range packed(nc) {
			if len(nc.chunks[i].cellIDs) > 0 {
				out = append(out, d)
			}
		}
		return out
	}
}

// TestBuilderEgressByClass prints the builder's seed egress for one slot
// at the paper's geometry (512x512, redundant seeding with r = 8), by
// class, under the per-line layout planSeed replaced and the packed one it
// builds: run with -v for the table DESIGN.md §9 quotes. It is computed
// from planSeed and the wire sizes alone, so it reaches network sizes a
// simulated slot cannot; -short and -race stop at 1,000 nodes (the
// arithmetic has no concurrency to check). It also pins the
// packed layout's totals: under 1.9 GB at 10,000 nodes and 3.3 GB at
// 20,000, and never more than the per-line layout sends.
func TestBuilderEgressByClass(t *testing.T) {
	sizes := []int{1000, 10000, 20000}
	if testing.Short() || raceEnabled {
		sizes = sizes[:1]
	}
	limits := map[int]int64{10000: 1.9e9, 20000: 3.3e9}
	cfg := DefaultConfig()
	cb := cfg.Blob.CellBytes
	const uplink = 10e9 / 8 // bytes per second at 10 Gbps
	t.Logf("%7s %-8s %9s %9s %9s %9s %10s %12s", "nodes", "layout", "total MB", "cells MB", "CB MB", "header MB", "dgrams/node", "s to 1st cell")
	for _, nodes := range sizes {
		b, _, _ := builderFixture(t, cfg, nodes)
		plan, _ := b.planSeed(1)
		before := egressOf(plan, cb, perLineSizes(cb))
		after := egressOf(plan, cb, packedSizes(cb))
		for _, r := range []struct {
			name string
			e    seedEgress
		}{{"per-line", before}, {"packed", after}} {
			t.Logf("%7d %-8s %9.1f %9.1f %9.1f %9.1f %10.1f %12.3f", nodes, r.name,
				float64(r.e.total())/1e6, float64(r.e.cells)/1e6, float64(r.e.cb)/1e6, float64(r.e.header)/1e6,
				float64(r.e.datagrams)/float64(r.e.nodes), float64(r.e.beforeFirstCell)/uplink)
		}
		if after.cells != before.cells || after.total() > before.total() {
			t.Errorf("%d nodes: packed layout sends %d B (%d of cells), per-line %d B (%d of cells)",
				nodes, after.total(), after.cells, before.total(), before.cells)
		}
		if limit, ok := limits[nodes]; ok && after.total() > limit {
			t.Errorf("%d nodes: builder egress %.2f GB, want at most %.1f GB", nodes, float64(after.total())/1e9, float64(limit)/1e9)
		}
	}
}
