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
// boost entries it decoded, the entries the builder sent, and how many
// datagrams carried both boost runs and cells.
type encodingTransport struct {
	t         *testing.T
	cellBytes int
	buf       []byte
	in        wire.Inbox
	sent      map[wire.BoostEntry]bool
	decoded   map[int][]wire.BoostEntry
	datagrams int
	mixed     int
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
	if !slices.Equal(slices.Concat(got.Boost...), slices.Concat(m.Boost...)) {
		e.t.Fatalf("datagram to %d: decoded boost entries differ from those sent", to)
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
	if len(got.Boost) > 0 && len(got.Cells) > 0 {
		e.mixed++
	}
}

func (e *encodingTransport) SendReliable(to, size int, payload any) { e.Send(to, size, payload) }
func (e *encodingTransport) After(time.Duration, func())            {}
func (e *encodingTransport) Now() time.Duration                     { return 0 }

// TestSeedSizesMatchEncoding pins the seed class of the size accounting:
// every datagram SeedSlot and PrepareAndSeed hand to the transport is
// charged exactly the bytes it encodes to plus the IP/UDP header, and
// decodes back to the boost entries and cells that were sent (a line's
// entries may decode in several runs of the format); datagrams that
// carry both (a node's last boost datagram with its first cells) are
// among them. Per node, the decoded entries are exactly its share of the
// builder's map of the lines it holds — the entries
// TestBuilderBoostMapIsExact checks against the cells sent, of its class
// where the line is sharded (referenceClasses) — each once. It covers
// every policy and builder setup (withholding splits parcels into several
// runs, a restricted view remaps ranks) with metadata and real payloads
// at the test geometry, and with metadata at the paper's over 1,000 nodes
// for one slot (real payloads encode the same sizes).
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
			tr.datagrams, tr.mixed = 0, 0
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
			if tr.mixed == 0 && report.Cells > 0 {
				t.Fatalf("slot %d: no datagram carries both boost runs and cells", slot)
			}
			perLine := make(map[blob.Line][]wire.BoostEntry)
			for e := range tr.sent {
				perLine[e.Line] = append(perLine[e.Line], e)
			}
			copies := 1
			if cfg.Policy == PolicyRedundant {
				copies = cfg.Redundancy
			}
			// inShare reports whether an entry of line l is in node's share.
			type classes struct {
				of map[int]int
				s  int
			}
			lineClasses := make(map[blob.Line]classes)
			inShare := func(node int, l blob.Line, e wire.BoostEntry) bool {
				c, ok := lineClasses[l]
				if !ok {
					classOf, byClass := referenceClasses(b, l, referenceKnownHolders(b, l), copies)
					c = classes{classOf, len(byClass)}
					lineClasses[l] = c
				}
				return c.s == 0 || int(e.HolderRef)%c.s == c.of[node]
			}
			for node := 0; node < table.NumNodes(); node++ {
				a := table.Assignment(node)
				want := 0
				if b.view == nil || b.view.Contains(node) {
					for _, l := range a.Lines() {
						for _, e := range perLine[l] {
							if inShare(node, l, e) {
								want++
							}
						}
					}
				}
				got := tr.decoded[node]
				seen := make(map[wire.BoostEntry]bool, len(got))
				for _, e := range got {
					if !tr.sent[e] || !a.HasLine(e.Line) || seen[e] || !inShare(node, e.Line, e) {
						t.Fatalf("slot %d node %d: decoded entry %+v is not its share of the map of its lines, or repeats", slot, node, e)
					}
					seen[e] = true
				}
				if len(got) != want {
					t.Fatalf("slot %d node %d: decoded %d entries, its share of the map of its lines has %d", slot, node, len(got), want)
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

// TestWideRankSeedsMatchEncoding covers the boost runs' 2-byte rank
// width on the builder's own datagrams: no simulated geometry has 256
// holders of a line, but at the paper's geometry over 20,000 nodes
// canonical ranks reach about 312. Every 97th recipient's boost
// datagrams, built as transmit builds them (metadata cells), must encode
// to exactly their WireSize and decode to the entries sent, per line, and
// the sample must name a rank past 255. It is computed from planSeed
// alone; -short and -race skip it, as they skip TestBuilderEgressByClass's
// large rows.
func TestWideRankSeedsMatchEncoding(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a 20,000-node plan; the 1,000-node checks cover the codec at -short and -race")
	}
	cfg := DefaultConfig()
	b, _, _ := builderFixture(t, cfg, 20000)
	plan, _ := b.planSeed(1)
	perLine := func(runs [][]wire.BoostEntry) map[blob.Line][]wire.BoostEntry {
		m := make(map[blob.Line][]wire.BoostEntry)
		for _, run := range runs {
			for _, e := range run {
				m[e.Line] = append(m[e.Line], e)
			}
		}
		return m
	}
	var (
		buf                  []byte
		in                   wire.Inbox
		datagrams, wideRanks int
	)
	for i := 0; i < len(plan.nodes); i += 97 {
		nc := &plan.nodes[i]
		for c := range nc.chunks {
			if len(nc.chunks[c].boost) == 0 {
				continue
			}
			m := b.seedDatagram(1, [wire.SigSize]byte{}, &nc.chunks[c], nil)
			var err error
			if buf, err = wire.EncodeAppend(buf[:0], m, cfg.Blob.CellBytes); err != nil {
				t.Fatalf("node %d chunk %d: %v", nc.node, c, err)
			}
			if size := m.WireSize(cfg.Blob.CellBytes); wire.OverheadIPUDP+len(buf) != size {
				t.Fatalf("node %d chunk %d: charged %d bytes, encodes to %d + %d", nc.node, c, size, wire.OverheadIPUDP, len(buf))
			}
			got, err := wire.DecodeInto(&in, buf, cfg.Blob.CellBytes)
			if err != nil {
				t.Fatalf("node %d chunk %d does not decode: %v", nc.node, c, err)
			}
			sent, decoded := perLine(m.Boost), perLine(got.(*wire.Seed).Boost)
			if len(sent) != len(decoded) {
				t.Fatalf("node %d chunk %d: %d lines sent, %d decoded", nc.node, c, len(sent), len(decoded))
			}
			for l, es := range sent {
				if !slices.Equal(es, decoded[l]) {
					t.Fatalf("node %d chunk %d: line %v decodes to other entries than were sent", nc.node, c, l)
				}
				for _, e := range es {
					if e.HolderRef >= 256 {
						wideRanks++
					}
				}
			}
			datagrams++
		}
	}
	if wideRanks == 0 {
		t.Fatalf("%d boost datagrams sampled, none names a rank past 255", datagrams)
	}
	t.Logf("%d boost datagrams sampled, %d entries with 2-byte ranks", datagrams, wideRanks)
}

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

// egressOf sums a plan's datagrams by class, in transmit's order.
func egressOf(plan seedPlan, cellBytes int) seedEgress {
	header := (&wire.Seed{}).WireSize(cellBytes)
	record := wire.CellWire(cellBytes)
	e := seedEgress{nodes: len(plan.nodes)}
	cellSent := false
	for pass := 0; pass < plan.maxChunks; pass++ {
		for _, nc := range plan.nodes {
			if pass >= len(nc.chunks) {
				continue
			}
			c := nc.chunks[pass]
			cellSent = cellSent || len(c.cellIDs) > 0
			size := (&wire.Seed{Boost: c.boost}).WireSize(cellBytes) + len(c.cellIDs)*record
			if !cellSent {
				e.beforeFirstCell += int64(size)
			}
			e.datagrams++
			e.header += int64(header)
			e.cells += int64(len(c.cellIDs) * record)
			e.cb += int64(size - header - len(c.cellIDs)*record)
		}
	}
	return e
}

// TestBuilderEgressByClass prints the builder's seed egress for one slot
// at the paper's geometry (512x512, redundant seeding with r = 8), by
// class, with the seconds a 10 Gbps uplink spends on the CB map and on
// what leaves before the first cell datagram: run with -v for the table
// DESIGN.md §9 quotes. A last row does
// the same at the 1,500-node bench slot's geometry (32x32, 2+2 custody
// lines, r = 8), the computed counterpart of its builder_mb_out. It is
// computed from planSeed and the wire sizes alone, so it reaches network
// sizes a simulated slot cannot; -short and -race stop at 1,000 nodes
// (the arithmetic has no concurrency to check). It also pins the totals:
// at most 1.30 GB at 10,000 nodes and 1.65 GB at 20,000, where the CB map
// is at most 27 % of the egress and the uplink sends at most 0.6 s before
// the first cell datagram leaves.
func TestBuilderEgressByClass(t *testing.T) {
	paper := DefaultConfig()
	dense := DefaultConfig()
	dense.Blob = blob.Params{K: 16, CellBytes: 512, ProofBytes: 48}
	dense.Assign.Rows, dense.Assign.Cols, dense.Assign.N = 2, 2, dense.Blob.N()
	runs := []struct {
		name  string
		cfg   Config
		nodes int
	}{{"paper", paper, 1000}, {"paper", paper, 10000}, {"paper", paper, 20000}, {"bench", dense, 1500}}
	if testing.Short() || raceEnabled {
		runs = []struct {
			name  string
			cfg   Config
			nodes int
		}{runs[0], runs[3]}
	}
	limits := map[int]int64{10000: 1.30e9, 20000: 1.65e9}
	const uplink = 10e9 / 8 // bytes per second at 10 Gbps
	t.Logf("%7s %-8s %9s %9s %9s %8s %9s %10s %8s %12s", "nodes", "geometry", "total MB", "cells MB", "CB MB", "CB share",
		"header MB", "dgrams/node", "CB s", "s to 1st cell")
	for _, r := range runs {
		cb := r.cfg.Blob.CellBytes
		b, _, _ := builderFixture(t, r.cfg, r.nodes)
		plan, _ := b.planSeed(1)
		e := egressOf(plan, cb)
		t.Logf("%7d %-8s %9.1f %9.1f %9.1f %6.1f %% %9.1f %10.1f %8.3f %12.3f", r.nodes, r.name,
			float64(e.total())/1e6, float64(e.cells)/1e6, float64(e.cb)/1e6, 100*float64(e.cb)/float64(e.total()),
			float64(e.header)/1e6, float64(e.datagrams)/float64(e.nodes), float64(e.cb)/uplink, float64(e.beforeFirstCell)/uplink)
		if limit, ok := limits[r.nodes]; ok && e.total() > limit {
			t.Errorf("%d nodes: builder egress %.2f GB, want at most %.2f GB", r.nodes, float64(e.total())/1e9, float64(limit)/1e9)
		}
		if r.nodes == 20000 {
			if share := float64(e.cb) / float64(e.total()); share > 0.27 {
				t.Errorf("%d nodes: the CB map is %.1f %% of the egress, want at most 27 %%", r.nodes, 100*share)
			}
			if s := float64(e.beforeFirstCell) / uplink; s > 0.6 {
				t.Errorf("%d nodes: %.3f s of egress before the first cell datagram, want at most 0.6 s", r.nodes, s)
			}
		}
	}
}
