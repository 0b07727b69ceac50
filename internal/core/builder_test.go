package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/kzg"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

// captureTransport records sends for unit tests of node/builder logic.
type captureTransport struct {
	now   time.Duration
	sends []capturedSend
	// timers run manually via fire().
	timers []capturedTimer
}

type capturedSend struct {
	to       int
	size     int
	payload  any
	reliable bool
}

type capturedTimer struct {
	at time.Duration
	fn func()
}

func (c *captureTransport) Send(to, size int, payload any) {
	c.sends = append(c.sends, capturedSend{to: to, size: size, payload: payload})
}

func (c *captureTransport) SendReliable(to, size int, payload any) {
	c.sends = append(c.sends, capturedSend{to: to, size: size, payload: payload, reliable: true})
}

func (c *captureTransport) After(d time.Duration, fn func()) {
	c.timers = append(c.timers, capturedTimer{at: c.now + d, fn: fn})
}

func (c *captureTransport) Now() time.Duration { return c.now }

// advance runs all timers due by the new time, in order.
func (c *captureTransport) advance(to time.Duration) {
	for {
		best := -1
		for i, t := range c.timers {
			if t.at <= to && (best < 0 || t.at < c.timers[best].at) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		t := c.timers[best]
		c.timers = append(c.timers[:best], c.timers[best+1:]...)
		if t.at > c.now {
			c.now = t.at
		}
		t.fn()
	}
	if to > c.now {
		c.now = to
	}
}

func builderFixture(t testing.TB, cfg Config, n int) (*Builder, *Table, *captureTransport) {
	return seededBuilder(t, cfg, n, 1)
}

// seededBuilder is builderFixture with the builder's rng seeded by seed
// and the epoch seed (hence the custody table) varied with it.
func seededBuilder(t testing.TB, cfg Config, n int, seed int64) (*Builder, *Table, *captureTransport) {
	t.Helper()
	nodeIDs := make([]ids.NodeID, n)
	for i := range nodeIDs {
		nodeIDs[i] = ids.NewTestIdentity(int64(i)).ID
	}
	var epoch assign.Seed
	epoch[0] = byte(6 + seed)
	table, err := NewTable(cfg.Assign, epoch, nodeIDs)
	if err != nil {
		t.Fatal(err)
	}
	tr := &captureTransport{}
	b := NewBuilder(cfg, n, ids.NewTestIdentity(999).ID, table, tr, seed)
	return b, table, tr
}

// testSigner stands in for the proposer's signature over a slot.
func testSigner(slot uint64) (sig [wire.SigSize]byte) {
	binary.BigEndian.PutUint64(sig[:], slot*0x9e3779b97f4a7c15)
	return sig
}

// viewFunc adapts a predicate to membership.View, so a test can restrict
// a view without building a cluster.
type viewFunc func(peer int) bool

// Contains implements membership.View.
func (f viewFunc) Contains(peer int) bool { return f(peer) }

// builderSetups are the builder behaviours the seed-plan tests cover:
// honest, maximal withholding, and a restricted view (every third node
// unknown).
var builderSetups = []struct {
	name  string
	apply func(b *Builder)
}{
	{"honest", func(*Builder) {}},
	{"withhold-maximal", func(b *Builder) {
		n := b.cfg.Blob.N()
		b.SetWithholding(func(id blob.CellID) bool { return blob.Withheld(n, id) })
	}},
	{"view", func(b *Builder) {
		b.SetView(viewFunc(func(peer int) bool { return peer%3 != 0 }))
	}},
}

func TestBuilderSeedsAllCellsOnce(t *testing.T) {
	cfg := TestConfig()
	cfg.Policy = PolicySingle
	b, _, tr := builderFixture(t, cfg, 100)
	report := b.SeedSlot(1)
	if report.Cells != cfg.Blob.ExtendedCells() {
		t.Fatalf("single policy sent %d cells, want %d", report.Cells, cfg.Blob.ExtendedCells())
	}
	// Every cell appears exactly once across all seed messages.
	seen := make(map[blob.CellID]int)
	for _, s := range tr.sends {
		m, ok := s.payload.(*wire.Seed)
		if !ok {
			t.Fatalf("non-seed payload %T", s.payload)
		}
		if !s.reliable {
			t.Fatal("seeding must use the reliable path")
		}
		for _, c := range m.Cells {
			seen[c.ID]++
		}
	}
	if len(seen) != cfg.Blob.ExtendedCells() {
		t.Fatalf("distinct cells = %d", len(seen))
	}
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("cell %v sent %d times", id, cnt)
		}
	}
}

func TestBuilderChunkMarkersConsistent(t *testing.T) {
	cfg := TestConfig()
	b, _, tr := builderFixture(t, cfg, 60)
	b.SeedSlot(1)
	perNode := make(map[int][]*wire.Seed)
	for _, s := range tr.sends {
		perNode[s.to] = append(perNode[s.to], s.payload.(*wire.Seed))
	}
	mixed := 0
	for node, msgs := range perNode {
		total := int(msgs[0].ChunkCount)
		if total != len(msgs) {
			t.Fatalf("node %d: ChunkCount %d != %d messages", node, total, len(msgs))
		}
		seenIdx := make(map[uint16]bool)
		lastBoost := -1
		for i, m := range msgs {
			if int(m.ChunkCount) != total {
				t.Fatal("inconsistent ChunkCount")
			}
			if seenIdx[m.ChunkIndex] {
				t.Fatal("duplicate ChunkIndex")
			}
			seenIdx[m.ChunkIndex] = true
			if len(m.Boost) > 0 {
				lastBoost = i
			}
		}
		// No boost after the first chunk that carries cells, and only the
		// last boost chunk may carry cells too.
		for i, m := range msgs {
			if len(m.Cells) > 0 && i < lastBoost {
				t.Fatalf("node %d msg %d: cells before the last boost chunk %d", node, i, lastBoost)
			}
		}
		if lastBoost >= 0 && len(msgs[lastBoost].Cells) > 0 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no boost chunk carries cells")
	}
}

func TestBuilderBoostEntriesResolve(t *testing.T) {
	cfg := TestConfig()
	b, table, tr := builderFixture(t, cfg, 60)
	b.SeedSlot(1)
	for _, s := range tr.sends {
		m := s.payload.(*wire.Seed)
		for _, run := range m.Boost {
			for _, e := range run {
				peer := table.HolderAt(e.Line, int(e.HolderRef))
				if peer < 0 {
					t.Fatalf("boost entry %+v resolves to no holder", e)
				}
				if !table.Assignment(peer).HasLine(e.Line) {
					t.Fatalf("boost entry resolves to non-holder %d", peer)
				}
			}
		}
	}
}

// TestBuilderBoostMapIsExact pins that the consolidation-boost map names
// exactly the cells each holder was sent: every position of every entry
// reached the holder it names, and per holder the entries add up to the
// cells it received. Nodes plan round 1 on this map, and count their own
// parcels as good as received. With every line held, each line carries
// exactly half of its seeded positions. Withholding and a network too
// small for every line to have a holder break parcels into runs, and the
// map must stay exact there too.
//
// Each recipient gets its share of the map, and the share is pinned too:
// on a line whose known holders fill every class (referenceClasses) it is
// exactly the entries of the recipient's class, and it names every parcel
// of the line with boostHolders holders, the recipient's own parcels
// among them; on any other line, and under the single and minimal
// policies, it is the line's whole map.
func TestBuilderBoostMapIsExact(t *testing.T) {
	cases := []struct {
		name     string
		policy   Policy
		n        int
		withhold bool
		view     bool
		sharded  bool // some line's map is sharded
	}{
		{"single", PolicySingle, 60, false, false, false},
		{"redundant", PolicyRedundant, 60, false, false, true},
		{"minimal", PolicyMinimal, 60, false, false, false},
		{"withholding", PolicyRedundant, 60, true, false, true},
		{"holderless-lines", PolicySingle, 6, false, false, false},
		{"sharded", PolicyRedundant, 200, false, false, true},
		{"sharded-withholding", PolicyRedundant, 200, true, false, true},
		{"sharded-view", PolicyRedundant, 200, false, true, true},
		{"single-dense", PolicySingle, 200, false, false, false},
		{"minimal-dense", PolicyMinimal, 200, false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TestConfig()
			cfg.Policy = tc.policy
			b, table, tr := builderFixture(t, cfg, tc.n)
			width := cfg.Blob.N()
			if tc.withhold {
				b.SetWithholding(func(id blob.CellID) bool { return (int(id.Row)+int(id.Col))%5 == 0 })
			}
			if tc.view {
				b.SetView(viewFunc(func(peer int) bool { return peer%5 != 2 }))
			}
			b.SeedSlot(1)
			got := make(map[int]map[blob.CellID]bool)
			entries := make(map[wire.BoostEntry]bool)
			recv := make(map[int][]wire.BoostEntry) // recipient -> entries, in arrival order
			for _, s := range tr.sends {
				m := s.payload.(*wire.Seed)
				for _, c := range m.Cells {
					if got[s.to] == nil {
						got[s.to] = make(map[blob.CellID]bool)
					}
					got[s.to][c.ID] = true
				}
				for _, run := range m.Boost {
					for _, e := range run {
						entries[e] = true
						recv[s.to] = append(recv[s.to], e)
					}
				}
			}
			claimed := make(map[int]int)
			perLine := make(map[blob.Line]int)
			lineEntries := make(map[blob.Line][]wire.BoostEntry)
			for e := range entries {
				holder := table.HolderAt(e.Line, int(e.HolderRef))
				for pos := int(e.Start); pos < int(e.Start)+int(e.Count); pos++ {
					if id := cellOnLine(e.Line, pos); !got[holder][id] {
						t.Fatalf("entry %+v claims cell %v, never sent to holder %d", e, id, holder)
					}
				}
				claimed[holder] += int(e.Count)
				perLine[e.Line] += int(e.Count)
				lineEntries[e.Line] = append(lineEntries[e.Line], e)
			}
			for holder, cells := range got {
				if claimed[holder] != len(cells) {
					t.Fatalf("holder %d received %d cells, its entries name %d", holder, len(cells), claimed[holder])
				}
			}

			copies := 1
			if tc.policy == PolicyRedundant {
				copies = cfg.Redundancy
			}
			sharded := 0
			for node := 0; node < tc.n; node++ {
				want := make(map[wire.BoostEntry]bool)
				for _, l := range table.Assignment(node).Lines() {
					holders := referenceKnownHolders(b, l)
					if !slices.Contains(holders, node) {
						continue
					}
					classOf, byClass := referenceClasses(b, l, holders, copies)
					groups := make(map[[2]uint16]int) // (start, count) -> holders named
					for _, e := range lineEntries[l] {
						if byClass == nil || int(e.HolderRef)%len(byClass) == classOf[node] {
							want[e] = true
							groups[[2]uint16{e.Start, e.Count}]++
						}
					}
					if byClass == nil {
						continue
					}
					sharded++
					for _, e := range lineEntries[l] {
						if k := groups[[2]uint16{e.Start, e.Count}]; k != boostHolders {
							t.Fatalf("node %d line %v: its share names cells %d+%d with %d holders, want %d",
								node, l, e.Start, e.Count, k, boostHolders)
						}
					}
				}
				mine := recv[node]
				if len(mine) != len(want) {
					t.Fatalf("node %d received %d entries, its share has %d", node, len(mine), len(want))
				}
				for _, e := range mine {
					if !want[e] {
						t.Fatalf("node %d received entry %+v outside its share, or twice", node, e)
					}
					delete(want, e)
					if table.HolderAt(e.Line, int(e.HolderRef)) == node {
						claimed[node] -= int(e.Count)
					}
				}
				if claimed[node] != 0 {
					t.Fatalf("node %d: its share misses %d cells of its own parcels", node, claimed[node])
				}
			}
			if (sharded > 0) != tc.sharded {
				t.Fatalf("%d (node, line) shares sharded, want some: %v", sharded, tc.sharded)
			}

			if tc.policy != PolicySingle || tc.n != 60 {
				return
			}
			for i := 0; i < width; i++ {
				for _, l := range []blob.Line{{Kind: blob.Row, Index: uint16(i)}, {Kind: blob.Col, Index: uint16(i)}} {
					if len(table.Holders(l)) > 0 && perLine[l] != cfg.Blob.K {
						t.Fatalf("line %v carries %d cells, want %d", l, perLine[l], cfg.Blob.K)
					}
				}
			}
		})
	}
}

func TestBuilderWithholdingReport(t *testing.T) {
	cfg := TestConfig()
	cfg.Policy = PolicySingle
	b, _, _ := builderFixture(t, cfg, 60)
	n := cfg.Blob.N()
	h := n/2 + 1
	b.SetWithholding(func(id blob.CellID) bool {
		return int(id.Row) < h && int(id.Col) < h
	})
	report := b.SeedSlot(1)
	if report.Withheld != h*h {
		t.Fatalf("withheld %d, want %d", report.Withheld, h*h)
	}
	if report.Cells != cfg.Blob.ExtendedCells()-h*h {
		t.Fatalf("cells sent %d", report.Cells)
	}
}

func TestBuilderRestrictedView(t *testing.T) {
	cfg := TestConfig()
	b, _, tr := builderFixture(t, cfg, 80)
	b.SetView(viewFunc(func(peer int) bool { return peer < 40 }))
	report := b.SeedSlot(1)
	if report.NodesSeeded == 0 {
		t.Fatal("nothing seeded")
	}
	for _, s := range tr.sends {
		if s.to >= 40 {
			t.Fatalf("seeded out-of-view node %d", s.to)
		}
	}
}

// TestBuilderPipelinedMatchesMonolithic pins the streaming
// PrepareAndSeed path at GOMAXPROCS 1, 2 and 8 against PrepareBlob
// followed by SeedSlot at GOMAXPROCS 1 (single-worker pools):
// identical commitment, identical proof arena, bit-identical seed
// datagrams (recipients, sizes, order, payloads, proofs), an equal
// report and an equal trace — across worker counts and a second slot
// that reuses every arena. The redundant case runs every builder option
// at once: a proposer signer, withholding and a restricted view.
func TestBuilderPipelinedMatchesMonolithic(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		setup  func(b *Builder)
	}{
		{"single", PolicySingle, func(*Builder) {}},
		{"redundant-all-options", PolicyRedundant, func(b *Builder) {
			b.SetProposerSigner(testSigner)
			b.SetWithholding(func(id blob.CellID) bool { return (int(id.Row)*3+int(id.Col))%7 == 0 })
			b.SetView(viewFunc(func(peer int) bool { return peer%4 != 1 }))
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := TestConfig()
			cfg.RealPayloads = true
			cfg.Policy = tc.policy
			data := make([]byte, cfg.Blob.BlobBytes())
			rand.New(rand.NewSource(42)).Read(data)
			for _, workers := range []int{1, 2, 8} {
				// Both builders are rebuilt per worker count so their rngs
				// start from the same state (seeding consumes rng as it
				// plans).
				var wantEvents, gotEvents []obsv.Event
				cfg.Recorder = obsv.RecorderFunc(func(e obsv.Event) { wantEvents = append(wantEvents, e) })
				want, _, wantTr := builderFixture(t, cfg, 80)
				cfg.Recorder = obsv.RecorderFunc(func(e obsv.Event) { gotEvents = append(gotEvents, e) })
				got, _, gotTr := builderFixture(t, cfg, 80)
				tc.setup(want)
				tc.setup(got)
				for slot := uint64(1); slot <= 2; slot++ { // slot 2 reuses arenas
					wantTr.sends, gotTr.sends = nil, nil
					wantEvents, gotEvents = nil, nil
					runtime.GOMAXPROCS(1)
					if err := want.PrepareBlob(data); err != nil {
						t.Fatal(err)
					}
					wantReport := want.SeedSlot(slot)
					runtime.GOMAXPROCS(workers)
					gotReport, err := got.PrepareAndSeed(slot, data)
					if err != nil {
						t.Fatal(err)
					}
					if got.Commitment() != want.Commitment() {
						t.Fatalf("workers=%d slot=%d: commitments differ", workers, slot)
					}
					if !reflect.DeepEqual(got.proofs, want.proofs) {
						t.Fatalf("workers=%d slot=%d: proof arenas differ", workers, slot)
					}
					requireSameSeeding(t, fmt.Sprintf("workers=%d slot=%d", workers, slot),
						seeding{gotReport, gotTr.sends, gotEvents},
						seeding{wantReport, wantTr.sends, wantEvents})
				}
			}
		})
	}
}

// seeding is what one slot's seeding showed the outside world: the
// report, the transport's sends in order and the recorder's events.
type seeding struct {
	report SeedingReport
	sends  []capturedSend
	events []obsv.Event
}

// requireSameSeeding fails t unless two seedings are bit-identical: equal
// reports, the same envelopes (recipient, size, reliability) in the same
// order, DeepEqual datagrams (header, boost, cells with payloads and
// proofs) and equal, non-empty traces.
func requireSameSeeding(t *testing.T, label string, got, want seeding) {
	t.Helper()
	if got.report != want.report {
		t.Fatalf("%s: reports differ:\n got %+v\nwant %+v", label, got.report, want.report)
	}
	if len(got.sends) != len(want.sends) {
		t.Fatalf("%s: %d sends, want %d", label, len(got.sends), len(want.sends))
	}
	for i := range got.sends {
		g, w := got.sends[i], want.sends[i]
		if g.to != w.to || g.size != w.size || g.reliable != w.reliable {
			t.Fatalf("%s send %d: envelope differs", label, i)
		}
		if !reflect.DeepEqual(g.payload, w.payload) {
			t.Fatalf("%s send %d: datagram differs", label, i)
		}
	}
	if len(want.events) == 0 || !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s: traces differ: %d events, want %d", label, len(got.events), len(want.events))
	}
}

// TestTransmitMatchesReference pins the parallel transmit against the
// serial loop it replaced (referenceTransmit): SeedSlot and
// PrepareAndSeed at GOMAXPROCS 1, 2 and 8 each match PrepareBlob
// followed by the reference seeding, datagram for datagram, in the
// report and in the trace, for every policy and builder setup, over two
// slots (the second reuses every arena) and at two network sizes (20
// nodes leave lines holderless and carry several cell chunks per node).
// No two datagrams may share cell memory: the simulator holds each one
// by reference until it is delivered.
func TestTransmitMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	data := make([]byte, TestConfig().Blob.BlobBytes())
	rand.New(rand.NewSource(42)).Read(data)
	for _, policy := range []Policy{PolicyMinimal, PolicySingle, PolicyRedundant} {
		for _, s := range builderSetups {
			for _, nodes := range []int{20, 80} {
				t.Run(fmt.Sprintf("%v/%s/%d", policy, s.name, nodes), func(t *testing.T) {
					cfg := TestConfig()
					cfg.RealPayloads = true
					cfg.Policy = policy
					for _, workers := range []int{1, 2, 8} {
						runtime.GOMAXPROCS(workers)
						// Each run gets its own builder, so all three rngs
						// start from the same state.
						runs := make([]seeding, 3)
						builders := make([]*Builder, 3)
						transports := make([]*captureTransport, 3)
						for i := range builders {
							cfg.Recorder = obsv.RecorderFunc(func(e obsv.Event) { runs[i].events = append(runs[i].events, e) })
							builders[i], _, transports[i] = builderFixture(t, cfg, nodes)
							builders[i].SetProposerSigner(testSigner)
							s.apply(builders[i])
						}
						want, seeded, streamed := builders[0], builders[1], builders[2]
						for slot := uint64(1); slot <= 2; slot++ {
							for i := range runs {
								runs[i], transports[i].sends = seeding{}, nil
							}
							if err := want.PrepareBlob(data); err != nil {
								t.Fatal(err)
							}
							plan, report := want.planSeed(slot)
							want.recordWithheld(slot, report)
							referenceTransmit(want, slot, plan, &report)
							runs[0].report = report
							if err := seeded.PrepareBlob(data); err != nil {
								t.Fatal(err)
							}
							runs[1].report = seeded.SeedSlot(slot)
							var err error
							if runs[2].report, err = streamed.PrepareAndSeed(slot, data); err != nil {
								t.Fatal(err)
							}
							for i := range runs {
								runs[i].sends = transports[i].sends
							}
							for i, name := range []string{"SeedSlot", "PrepareAndSeed"} {
								label := fmt.Sprintf("%s workers=%d slot=%d", name, workers, slot)
								requireSameSeeding(t, label, runs[i+1], runs[0])
								requireDisjointCells(t, label, runs[i+1].sends)
							}
						}
					}
				})
			}
		}
	}
}

// requireDisjointCells fails t if two datagrams' Cells share backing
// memory.
func requireDisjointCells(t *testing.T, label string, sends []capturedSend) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var spans []span
	for _, s := range sends {
		if cs := s.payload.(*wire.Seed).Cells; cap(cs) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(cs)))
			spans = append(spans, span{lo, lo + uintptr(cap(cs))*unsafe.Sizeof(cs[0])})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s: two datagrams share cell memory", label)
		}
	}
}

// referenceTransmit is the serial transmit loop the parallel one
// replaced, kept as its differential oracle: one pass after another,
// each datagram's cells materialized through a temporary wire cell just
// before its send.
func referenceTransmit(b *Builder, slot uint64, plan seedPlan, report *SeedingReport) {
	for pass := 0; pass < plan.maxChunks; pass++ {
		for _, nc := range plan.nodes {
			if pass >= len(nc.chunks) {
				continue
			}
			chunk := &nc.chunks[pass]
			m := &wire.Seed{
				Slot:        slot,
				Builder:     b.id,
				ProposerSig: plan.sig,
				Commitment:  b.commitment,
				ChunkIndex:  chunk.index,
				ChunkCount:  chunk.count,
				Boost:       chunk.boost,
			}
			if len(chunk.cellIDs) > 0 {
				cs := make([]wire.Cell, len(chunk.cellIDs))
				for i, id := range chunk.cellIDs {
					c, ok := b.CellPayload(id)
					if !ok {
						c = wire.Cell{ID: id}
					}
					cs[i] = c
				}
				m.Cells = cs
			}
			size := m.WireSize(b.cfg.Blob.CellBytes)
			report.Messages++
			report.Cells += len(m.Cells)
			report.Bytes += int64(size)
			if b.rec != nil {
				b.rec.Record(obsv.Event{At: b.tr.Now(), Slot: slot,
					Kind: obsv.KindSeedSent, Node: int32(b.index),
					Peer: int32(nc.node), Count: int32(len(m.Cells)),
					Bytes: int64(size), Aux: int64(m.BoostEntries())})
			}
			b.tr.SendReliable(nc.node, size, m)
		}
	}
}

// countingTransport accepts every datagram and keeps only the totals.
type countingTransport struct {
	msgs  int
	bytes int64
}

func (c *countingTransport) Send(to, size int, payload any) {
	c.msgs++
	c.bytes += int64(size)
}
func (c *countingTransport) SendReliable(to, size int, payload any) { c.Send(to, size, payload) }
func (c *countingTransport) After(time.Duration, func())            {}
func (c *countingTransport) Now() time.Duration                     { return 0 }

// BenchmarkTransmit measures the transmit stage alone at the paper's
// geometry (512x512, redundant seeding with r = 8) over 1,000 nodes with
// real payloads and proofs, into a transport that only counts: one
// planned slot is transmitted per iteration, so the time and the
// allocations are those of building the slot's datagrams and handing
// them over. One untimed slot first grows the datagram and cell arenas,
// so B/op is the steady state's.
func BenchmarkTransmit(b *testing.B) {
	cfg := DefaultConfig()
	cfg.RealPayloads = true
	bl, _, _ := builderFixture(b, cfg, 1000)
	sink := &countingTransport{}
	bl.tr = sink
	data := make([]byte, cfg.Blob.BlobBytes())
	rand.New(rand.NewSource(42)).Read(data)
	if err := bl.PrepareBlob(data); err != nil {
		b.Fatal(err)
	}
	plan, report := bl.planSeed(1)
	sent := report
	bl.transmit(1, plan, &sent, nil)
	sink.msgs = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent = report
		bl.transmit(1, plan, &sent, nil)
	}
	b.StopTimer()
	if sink.msgs != b.N*sent.Messages || sent.Messages == 0 {
		b.Fatalf("sink saw %d datagrams over %d slots of %d", sink.msgs, b.N, sent.Messages)
	}
}

// TestSeedPlanMatchesReference pins the dense planSeed against the
// map-based planner it replaced (referencePlanSeed): equal plans and
// reports over two slots, for every policy and builder setup at five
// seeds, and at the paper's geometry over 1,000 nodes.
func TestSeedPlanMatchesReference(t *testing.T) {
	check := func(t *testing.T, cfg Config, nodes int, seed int64, setup func(*Builder)) {
		got, _, _ := seededBuilder(t, cfg, nodes, seed)
		want, _, _ := seededBuilder(t, cfg, nodes, seed)
		for _, b := range []*Builder{got, want} {
			b.SetProposerSigner(testSigner)
			setup(b)
		}
		for slot := uint64(1); slot <= 2; slot++ {
			gotPlan, gotReport := got.planSeed(slot)
			wantPlan, wantReport := referencePlanSeed(want, slot)
			if gotReport != wantReport {
				t.Fatalf("slot %d: reports differ:\n got %+v\nwant %+v", slot, gotReport, wantReport)
			}
			if !reflect.DeepEqual(gotPlan, wantPlan) {
				t.Fatalf("slot %d: plans differ", slot)
			}
		}
	}
	for _, policy := range []Policy{PolicyMinimal, PolicySingle, PolicyRedundant} {
		for _, s := range builderSetups {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed%d", policy, s.name, seed), func(t *testing.T) {
					cfg := TestConfig()
					cfg.Policy = policy
					check(t, cfg, 80, seed, s.apply)
				})
			}
		}
	}
	t.Run("paper-geometry", func(t *testing.T) {
		check(t, DefaultConfig(), 1000, 7, builderSetups[0].apply)
	})
}

// BenchmarkSeedPlan measures seed planning alone at the paper's geometry
// (512x512, redundant seeding with r = 8) over 1,000 nodes in metadata
// mode; the bench's core.builder_seed_ms lumps planning and transmission
// together. One untimed plan first grows the builder's arenas, so B/op is
// the steady state's.
func BenchmarkSeedPlan(b *testing.B) {
	bl, _, _ := builderFixture(b, DefaultConfig(), 1000)
	bl.planSeed(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.planSeed(uint64(i))
	}
}

// TestBuilderPrepareBlobReusesArenas pins the steady-state contract the
// builder benchmark depends on: preparing a second blob reuses the
// extended-matrix backing and the proof arena instead of reallocating.
func TestBuilderPrepareBlobReusesArenas(t *testing.T) {
	cfg := TestConfig()
	cfg.RealPayloads = true
	b, _, _ := builderFixture(t, cfg, 10)
	data := make([]byte, cfg.Blob.BlobBytes())
	rand.New(rand.NewSource(5)).Read(data)
	if err := b.PrepareBlob(data); err != nil {
		t.Fatal(err)
	}
	ext, proofs := b.extended, &b.proofs[0]
	rand.New(rand.NewSource(6)).Read(data)
	if err := b.PrepareBlob(data); err != nil {
		t.Fatal(err)
	}
	if b.extended != ext {
		t.Fatal("second PrepareBlob reallocated the extended matrix")
	}
	if &b.proofs[0] != proofs {
		t.Fatal("second PrepareBlob reallocated the proof arena")
	}
	// The re-prepared blob must be self-consistent: spot-check a proof.
	id := blob.CellID{Row: 3, Col: 29}
	cell, ok := b.CellPayload(id)
	if !ok {
		t.Fatal("no payload after prepare")
	}
	if !kzg.Verify(b.Commitment(), cell.ID, cell.Data, cell.Proof) {
		t.Fatal("re-prepared cell fails verification")
	}
}

// TestBuilderSeedingReusesArenas pins seeding's steady state, as
// TestBuilderPrepareBlobReusesArenas pins preparing's: once a slot has
// grown the builder's arenas, SeedSlot and PrepareAndSeed allocate at most
// maxSeedAllocs objects a slot, the same at 20 and at 300 nodes (13 and
// 200 datagrams with the view), in metadata mode and with real payloads,
// for every builder setup; and the next slot's datagrams carry their cells
// in the cell arena the first slot grew.
func TestBuilderSeedingReusesArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; allocation counts do not apply")
	}
	// PrepareAndSeed's are its goroutines, channel, row tracker and the
	// extension's options; SeedSlot's are transmit's wait group and worker
	// closure.
	const maxSeedAllocs = 24
	data := make([]byte, TestConfig().Blob.BlobBytes())
	rand.New(rand.NewSource(5)).Read(data)
	for _, real := range []bool{false, true} {
		for _, s := range builderSetups {
			for _, nodes := range []int{20, 300} {
				t.Run(fmt.Sprintf("real=%v/%s/%d", real, s.name, nodes), func(t *testing.T) {
					cfg := TestConfig()
					cfg.RealPayloads = real
					cfg.Policy = PolicyRedundant
					b, _, tr := builderFixture(t, cfg, nodes)
					b.SetProposerSigner(testSigner)
					s.apply(b)
					if real {
						if err := b.PrepareBlob(data); err != nil {
							t.Fatal(err)
						}
					}
					b.SeedSlot(1)
					arena := b.arenas.cells
					lo := uintptr(unsafe.Pointer(unsafe.SliceData(arena)))
					hi := lo + uintptr(len(arena))*unsafe.Sizeof(arena[0])
					tr.sends = nil
					report := b.SeedSlot(2)
					for _, send := range tr.sends {
						cs := send.payload.(*wire.Seed).Cells
						if at := uintptr(unsafe.Pointer(unsafe.SliceData(cs))); len(cs) > 0 &&
							(at < lo || at+uintptr(len(cs))*unsafe.Sizeof(cs[0]) > hi) {
							t.Fatal("slot 2 sent cells outside the cell arena slot 1 grew")
						}
					}
					b.tr = &countingTransport{}
					slot := uint64(2)
					seedSlot := testing.AllocsPerRun(5, func() {
						slot++
						b.SeedSlot(slot)
					})
					prepareAndSeed := testing.AllocsPerRun(5, func() {
						slot++
						if _, err := b.PrepareAndSeed(slot, data); err != nil {
							t.Fatal(err)
						}
					})
					if seedSlot > maxSeedAllocs || prepareAndSeed > maxSeedAllocs {
						t.Fatalf("%d datagrams a slot: SeedSlot allocates %.0f objects, PrepareAndSeed %.0f; want at most %d",
							report.Messages, seedSlot, prepareAndSeed, maxSeedAllocs)
					}
				})
			}
		}
	}
}

// seedTap is the builder's transport in
// TestSeedDatagramsLandWithinTheirSlot: it counts the seeds sent to live
// nodes and, per datagram, those that have not reached their node's
// handler yet.
type seedTap struct {
	Transport
	dead    []bool
	live    int
	pending map[*wire.Seed]int
}

func (s *seedTap) SendReliable(to, size int, payload any) {
	if !s.dead[to] {
		s.live++
		s.pending[payload.(*wire.Seed)]++
	}
	s.Transport.SendReliable(to, size, payload)
}

// TestSeedDatagramsLandWithinTheirSlot pins the lifetime contract of the
// builder's seeding arenas in the simulator, the one transport that holds
// a datagram by reference: over three slots, every seed datagram a slot
// sends reaches its live node's handler within the slot, carrying that
// slot, and when the slot ends — before the next slot's SeedSlot reuses
// the arenas — the network holds no message at all, so the seeds sent to
// dead nodes are gone too. Both regimes run the slot out: real payloads,
// and metadata with a fifth of the nodes dead and 3 % loss.
func TestSeedDatagramsLandWithinTheirSlot(t *testing.T) {
	data := make([]byte, TestConfig().Blob.BlobBytes())
	rand.New(rand.NewSource(9)).Read(data)
	for _, tc := range []struct {
		name       string
		real       bool
		dead, loss float64
	}{
		{"real-payloads", true, 0, 0},
		{"metadata-dead-loss", false, 0.2, 0.03},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := smallCluster(t, 120, func(cc *ClusterConfig) {
				cc.Core.RealPayloads = tc.real
				cc.DeadFraction, cc.LossRate = tc.dead, tc.loss
			})
			net := c.Network()
			tap := &seedTap{Transport: c.builder.tr, dead: c.dead, pending: make(map[*wire.Seed]int)}
			c.builder.tr = tap
			var slot uint64
			delivered := 0
			for i := range c.nodes {
				net.SetHandler(i, func(from, size int, payload any) {
					if m, ok := payload.(*wire.Seed); ok {
						if tap.pending[m] == 0 || m.Slot != slot {
							t.Fatalf("slot %d: node %d got a seed datagram of slot %d it was not sent this slot", slot, i, m.Slot)
						}
						if tap.pending[m]--; tap.pending[m] == 0 {
							delete(tap.pending, m)
						}
						delivered++
					}
					c.dispatch(i, from, size, payload)
				})
			}
			for slot = 1; slot <= 3; slot++ {
				if tc.real {
					if err := c.Builder().PrepareBlob(data); err != nil {
						t.Fatal(err)
					}
				}
				delivered, tap.live = 0, 0
				res, err := c.RunSlot(slot)
				if err != nil {
					t.Fatal(err)
				}
				if len(tap.pending) > 0 {
					t.Fatalf("slot %d: %d seed datagrams to live nodes had not reached their handler when the slot ended", slot, len(tap.pending))
				}
				inFlight := 0
				for i := 0; i < net.NumNodes(); i++ {
					st := net.Stats(i)
					inFlight += st.MsgsSent - st.MsgsLost - st.MsgsRecv
				}
				if inFlight != 0 {
					t.Fatalf("slot %d: %d messages still in the network when the slot ended", slot, inFlight)
				}
				if delivered != tap.live || delivered == 0 || tc.dead > 0 && delivered == res.Seeding.Messages {
					t.Fatalf("slot %d: %d of %d seed datagrams reached a handler, %d were sent to live nodes",
						slot, delivered, res.Seeding.Messages, tap.live)
				}
			}
		})
	}
}

func TestBuilderRedundancyCopies(t *testing.T) {
	cfg := TestConfig()
	cfg.Policy = PolicyRedundant
	cfg.Redundancy = 3
	b, table, tr := builderFixture(t, cfg, 200) // dense enough for 3 holders/line
	b.SeedSlot(1)
	counts := make(map[blob.CellID]int)
	for _, s := range tr.sends {
		for _, c := range s.payload.(*wire.Seed).Cells {
			counts[c.ID]++
		}
	}
	// Most cells should have exactly r copies (lines with < r holders cap).
	exact := 0
	for id, cnt := range counts {
		if cnt > 3 {
			t.Fatalf("cell %v sent %d > r times", id, cnt)
		}
		if cnt == 3 {
			exact++
		}
	}
	if float64(exact) < 0.5*float64(len(counts)) {
		t.Fatalf("only %d/%d cells reached full redundancy", exact, len(counts))
	}
	_ = table
}

// referencePlanSeed is the map-based seed planner planSeed replaced, kept
// as its differential oracle: per-line maps, a sorted line list, a
// linear holder-rank scan per recipient. Changed from the original where
// it called helpers that changed shape (knownHolders, pickExtras), in no
// longer tracing the withheld cells, which planSeed's callers now do, and
// where the protocol changed: the boost packing, the stratified draw and
// per-class shares of the map (referenceClasses), and the first cells
// carried in the last boost datagram.
func referencePlanSeed(b *Builder, slot uint64) (seedPlan, SeedingReport) {
	report := SeedingReport{Policy: b.cfg.Policy}
	n := b.cfg.Blob.N()
	half := b.cfg.Blob.K

	// Phase 1: decide, per cell, which of its two lines carries it.
	// Cells are seeded exactly once per copy set (140 MB for "single",
	// not 280), matching the paper's budget figures. The seeded square
	// (the whole matrix, or the base quadrant under the minimal policy)
	// is cut into quadrants: rows carry the top-left and bottom-right
	// ones, columns the other two. Every line then carries one contiguous
	// half of its seeded positions, so a parcel is a run of adjacent
	// positions and its boost entry names exactly the cells it holds:
	// nodes count their own parcels as good as received and ask the
	// holders of the others for precisely those cells.
	mid := n / 2
	if b.cfg.Policy == PolicyMinimal {
		mid = half / 2
	}
	perLine := make(map[blob.Line][]int) // line -> positions carried by it
	hasHolders := make(map[blob.Line]bool, 2*n)
	lineHasHolders := func(l blob.Line) bool {
		v, ok := hasHolders[l]
		if !ok {
			v = len(referenceKnownHolders(b, l)) > 0
			hasHolders[l] = v
		}
		return v
	}
	addCell := func(id blob.CellID) {
		if b.withhold != nil && b.withhold(id) {
			report.Withheld++
			return
		}
		rowL := blob.Line{Kind: blob.Row, Index: id.Row}
		colL := blob.Line{Kind: blob.Col, Index: id.Col}
		// Carry the cell on the line its quadrant names — but never on a
		// line with no known holders (possible at small scales or with
		// restricted views), which would silently lose the cell.
		rowOK, colOK := lineHasHolders(rowL), lineHasHolders(colL)
		byRow := (int(id.Row) < mid) == (int(id.Col) < mid)
		var l blob.Line
		var pos int
		switch {
		case rowOK && (!colOK || byRow):
			l, pos = rowL, int(id.Col)
		case colOK:
			l, pos = colL, int(id.Row)
		default:
			return // no holders at all: cell cannot be seeded
		}
		perLine[l] = append(perLine[l], pos)
	}
	switch b.cfg.Policy {
	case PolicyMinimal:
		// The minimal reconstructable set: the base data quadrant.
		for r := 0; r < half; r++ {
			for c := 0; c < half; c++ {
				addCell(blob.CellID{Row: uint16(r), Col: uint16(c)})
			}
		}
	default:
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				addCell(blob.CellID{Row: uint16(r), Col: uint16(c)})
			}
		}
	}

	// Phase 2: split every line's positions into contiguous parcels among
	// a random permutation of its (known) holders, with r-fold
	// replication under the redundant policy.
	copies := 1
	if b.cfg.Policy == PolicyRedundant {
		copies = b.cfg.Redundancy
	}
	nodeCells := make(map[int][]blob.CellID) // recipient -> planned cells
	lineBoost := make(map[blob.Line][]wire.BoostEntry)
	lineClasses := make(map[blob.Line]int) // sharded lines -> their classes
	linesInOrder := make([]blob.Line, 0, len(perLine))
	for line := range perLine {
		linesInOrder = append(linesInOrder, line)
	}
	sort.Slice(linesInOrder, func(i, j int) bool {
		a, c := linesInOrder[i], linesInOrder[j]
		if a.Kind != c.Kind {
			return a.Kind < c.Kind
		}
		return a.Index < c.Index
	})
	for _, line := range linesInOrder {
		positions := perLine[line]
		holders := referenceKnownHolders(b, line)
		if len(holders) == 0 {
			continue
		}
		// Positions arrive in scan order; parcels must group adjacent
		// cells.
		sort.Ints(positions)
		classOf, byClass := referenceClasses(b, line, holders, copies)
		perm := b.rng.Perm(len(holders))
		numParcels := min(len(positions), len(holders))
		base := len(positions) / numParcels
		extra := len(positions) % numParcels
		start := 0
		for pi := 0; pi < numParcels; pi++ {
			cnt := base
			if pi < extra {
				cnt++
			}
			chunk := positions[start : start+cnt]
			start += cnt
			recipients := []int{holders[perm[pi]]}
			switch {
			case byClass != nil:
				// Stratified: boostHolders copies from each class, class by
				// class, the primary counting for its own.
				seen := map[int]bool{recipients[0]: true}
				for c := 0; c < len(byClass); c++ {
					need := boostHolders
					if classOf[recipients[0]] == c {
						need--
					}
					for need > 0 {
						h := byClass[c][b.rng.Intn(len(byClass[c]))]
						if !seen[h] {
							seen[h] = true
							recipients = append(recipients, h)
							need--
						}
					}
				}
			case copies > 1:
				recipients = append(recipients, referencePickExtras(b, holders, recipients[0], copies-1)...)
			}
			for _, rcpt := range recipients {
				for _, pos := range chunk {
					// ID only: payload and proof are materialized at
					// transmission time (see transmit).
					nodeCells[rcpt] = append(nodeCells[rcpt], cellOnLine(line, pos))
				}
				rank := b.table.HolderRank(line, rcpt)
				if rank < 0 {
					continue
				}
				// One entry per run of adjacent positions: a parcel is a
				// single run unless withholding or a holderless crossing
				// line took cells out of its half.
				for run := chunk; len(run) > 0; {
					k := 1
					for k < len(run) && run[k] == run[k-1]+1 {
						k++
					}
					lineBoost[line] = append(lineBoost[line], wire.BoostEntry{
						Line:      line,
						HolderRef: uint16(rank),
						Start:     uint16(run[0]),
						Count:     uint16(k),
					})
					run = run[k:]
				}
			}
		}
		if byClass != nil {
			lineClasses[line] = len(byClass)
		}
	}

	// Phase 3: per-node boost maps — every holder of a line receives the
	// line's CB entries, even holders that got no cells: all of them, or
	// on a sharded line those of the copies drawn from its own class, in
	// the order they were drawn.
	nodeBoost := make(map[int][][]wire.BoostEntry)
	for _, line := range linesInOrder {
		entries := lineBoost[line]
		if len(entries) == 0 {
			continue
		}
		for _, h := range referenceKnownHolders(b, line) {
			share := entries
			if s := lineClasses[line]; s > 0 {
				share = nil
				for _, e := range entries {
					if int(e.HolderRef)%s == b.table.HolderRank(line, h)%s {
						share = append(share, e)
					}
				}
			}
			nodeBoost[h] = append(nodeBoost[h], share)
		}
	}

	// Phase 4: transmit, in randomized node order, chunked to datagram
	// size.
	recipients := make([]int, 0, len(nodeCells)+len(nodeBoost))
	seen := make(map[int]bool)
	for node := range nodeCells {
		if !seen[node] {
			seen[node] = true
			recipients = append(recipients, node)
		}
	}
	for node := range nodeBoost {
		if !seen[node] {
			seen[node] = true
			recipients = append(recipients, node)
		}
	}
	sort.Ints(recipients)
	b.rng.Shuffle(len(recipients), func(i, j int) {
		recipients[i], recipients[j] = recipients[j], recipients[i]
	})
	var plan seedPlan
	if b.signSeed != nil {
		plan.sig = b.signSeed(slot)
	}
	// Build every node's chunk sequence. Boost datagrams go FIRST: the
	// consolidation-boost map tells the node which cells are already on
	// their way to it, so its first fetch plan must see the complete map:
	// the node plans round 1 at its first cell datagram. The last boost
	// datagram also carries as many of the node's first cells as its room
	// and the per-datagram cell cap allow.
	record := 4 + b.cfg.Blob.CellBytes + kzg.ProofSize // ID, payload, proof
	for _, node := range recipients {
		cells := nodeCells[node]
		boostChunks, used := referencePackBoost(nodeBoost[node])
		report.NodesSeeded++
		var chunks []seedChunk
		for i, runs := range boostChunks {
			chunk := seedChunk{boost: runs, boostBytes: used[i]}
			if i == len(boostChunks)-1 {
				fit := min(len(cells), wire.MaxCellsPerMessage, (referenceBoostRoom()-used[i])/record)
				chunk.cellIDs, cells = cells[:fit], cells[fit:]
				if fit == 0 {
					chunk.cellIDs = nil
				}
			}
			chunks = append(chunks, chunk)
		}
		for len(cells) > 0 {
			chunk := cells
			if len(chunk) > wire.MaxCellsPerMessage {
				chunk = cells[:wire.MaxCellsPerMessage]
			}
			cells = cells[len(chunk):]
			chunks = append(chunks, seedChunk{cellIDs: chunk})
		}
		if len(chunks) == 0 {
			// A known node with nothing to carry still gets one empty
			// announcement datagram (commitment + signature).
			chunks = append(chunks, seedChunk{})
		}
		for i := range chunks {
			chunks[i].index, chunks[i].count = uint16(i), uint16(len(chunks))
			chunks[i].maxRow = -1
			for _, id := range chunks[i].cellIDs {
				if int(id.Row) > chunks[i].maxRow {
					chunks[i].maxRow = int(id.Row)
				}
			}
		}
		plan.maxChunks = max(plan.maxChunks, len(chunks))
		plan.nodes = append(plan.nodes, nodeSeedChunks{node: node, chunks: chunks})
	}
	return plan, report
}

// referenceClasses returns the classes a line's CB map is sharded into,
// by its own arithmetic: s = copies/boostHolders classes when that splits
// the copies into at least two classes of boostHolders, and every known
// holder in class (canonical rank mod s), listed by class in holder order.
// It returns nil, nil — the line's map goes whole to every holder — when
// the copies do not split or some class has fewer than boostHolders
// known holders.
func referenceClasses(b *Builder, line blob.Line, holders []int, copies int) (map[int]int, [][]int) {
	s := copies / boostHolders
	if s < 2 || s*boostHolders != copies {
		return nil, nil
	}
	classOf := make(map[int]int)
	byClass := make([][]int, s)
	for _, h := range holders {
		classOf[h] = b.table.HolderRank(line, h) % s
		byClass[classOf[h]] = append(byClass[classOf[h]], h)
	}
	for _, hs := range byClass {
		if len(hs) < boostHolders {
			return nil, nil
		}
	}
	return classOf, byClass
}

// referenceBoostRoom is what a seed datagram without cells has for its
// boost runs, counted from the format: the datagram bound less the type
// (1), slot (8), builder ID, signature, commitment, chunk index and count
// (4), cell count (4) and run count (4).
func referenceBoostRoom() int {
	return wire.MaxDatagram - (1 + 8 + ids.IDSize + wire.SigSize + kzg.CommitmentSize + 4 + 4 + 4)
}

// referencePackBoost cuts a node's lines into its boost datagrams' runs,
// and returns the bytes each datagram's runs take: the lines fill the
// datagrams in order, each as far as the datagram bound allows, and a
// line that does not fit is cut between two of its parcels. Sizes are
// counted from the format here: a parcel is a stretch of consecutive
// entries sharing (start, count), at most 255; a run of the format is
// parcels that each start where the previous one ended and have as many
// holders, 9 bytes of head, and per parcel a varint count and a rank per
// holder, 1 byte wide while every rank of the run is below 256, else 2.
// A cut line's tail opens a run in the next datagram.
func referencePackBoost(lines [][]wire.BoostEntry) ([][][]wire.BoostEntry, []int) {
	room := referenceBoostRoom()
	width := func(rank int) int {
		if rank < 256 {
			return 1
		}
		return 2
	}
	varint := func(c uint16) int {
		n := 1
		for ; c >= 128; c >>= 7 {
			n++
		}
		return n
	}
	var chunks [][][]wire.BoostEntry
	var runs [][]wire.BoostEntry
	var sizes []int
	used := 0 // the datagram's bytes of runs, the open one's included
	for _, entries := range lines {
		var run []wire.BoostEntry
		// The open run of the format: holders per parcel, where its next
		// parcel must start, its parcels, count bytes and largest rank.
		holders, next, parcels, counts, top := 0, 0, 0, 0, 0
		size := func() int { return 9 + counts + parcels*holders*width(top) }
		for i := 0; i < len(entries); {
			j := i + 1
			for j < len(entries) && j-i < 255 && entries[j].Start == entries[i].Start && entries[j].Count == entries[i].Count {
				j++
			}
			rank := 0
			for _, e := range entries[i:j] {
				rank = max(rank, int(e.HolderRef))
			}
			if j-i != holders || int(entries[i].Start) != next {
				holders, parcels, counts, top = j-i, 0, 0, 0
			}
			before := 0
			if parcels > 0 {
				before = size()
			}
			parcels, counts, top = parcels+1, counts+varint(entries[i].Count), max(top, rank)
			cost := size() - before
			if used+cost > room {
				if len(run) > 0 {
					runs = append(runs, run)
				}
				chunks, sizes = append(chunks, runs), append(sizes, used)
				run, runs, used = nil, nil, 0
				parcels, counts, top = 1, varint(entries[i].Count), rank
				cost = size()
			}
			next = int(entries[i].Start) + int(entries[i].Count)
			run = append(run, entries[i:j]...)
			used += cost
			i = j
		}
		runs = append(runs, run)
	}
	if len(runs) > 0 {
		chunks, sizes = append(chunks, runs), append(sizes, used)
	}
	return chunks, sizes
}

// TestPackBoostMatchesReference pins packBoost against referencePackBoost
// on maps too large for one datagram, which a 1,000-node plan never
// builds: sixteen lines of 256 parcels x 8 copies (4.4 KB a line in
// 2-byte ranks, two datagrams a node), one line of 300 copies a parcel
// (cut at 255), lines of single-copy parcels and lines whose parcels
// have gaps between them, as withholding leaves them. Every datagram
// must encode within the bound.
func TestPackBoostMatchesReference(t *testing.T) {
	line := func(kind blob.LineKind, index, parcels, copies, stride, count int) []wire.BoostEntry {
		var es []wire.BoostEntry
		for p := 0; p < parcels; p++ {
			for c := 0; c < copies; c++ {
				es = append(es, wire.BoostEntry{Line: blob.Line{Kind: kind, Index: uint16(index)},
					HolderRef: uint16(p*copies + c), Start: uint16(p * stride), Count: uint16(count)})
			}
		}
		return es
	}
	var paper, cut, gaps [][]wire.BoostEntry
	for i := 0; i < 16; i++ {
		paper = append(paper, line(blob.LineKind(i%2), i, 256, 8, 2, 2))
		cut = append(cut, line(blob.Row, i, 4000, 1, 1, 1))
		gaps = append(gaps, line(blob.Col, i, 1000, 2, 3, 2))
	}
	for _, tc := range []struct {
		name      string
		lines     [][]wire.BoostEntry
		datagrams int
	}{
		{"paper-20k", paper, 2},
		{"full-groups", [][]wire.BoostEntry{line(blob.Col, 3, 1, 300, 4, 4), line(blob.Row, 9, 3, 2, 4, 4)}, 1},
		{"single-copy", cut, 3},
		{"gaps", gaps, 4},
		{"one-line", paper[:1], 1},
		{"empty", nil, 0},
	} {
		name := tc.name
		want, wantSizes := referencePackBoost(tc.lines)
		var got [][][]wire.BoostEntry
		var sizes []int
		var a seedArenas
		a.packBoost(slices.Clone(tc.lines), func(runs [][]wire.BoostEntry, size int) {
			got, sizes = append(got, runs), append(sizes, size)
		})
		if !reflect.DeepEqual(got, want) || !slices.Equal(sizes, wantSizes) || len(got) != tc.datagrams {
			t.Fatalf("%s: %d datagrams, reference %d, want %d (or their runs or sizes differ)", name, len(got), len(want), tc.datagrams)
		}
		for i, runs := range got {
			m := &wire.Seed{ChunkIndex: uint16(i), ChunkCount: uint16(len(got)), Boost: runs}
			data, err := wire.Encode(m, 0)
			if err != nil || wire.OverheadIPUDP+len(data) != m.WireSize(0) || seedHead+sizes[i] != m.WireSize(0) {
				t.Fatalf("%s datagram %d: %d bytes encoded, WireSize %d, packed size %d (%v)", name, i, len(data), m.WireSize(0), seedHead+sizes[i], err)
			}
		}
	}
}

// referenceKnownHolders filters a line's holders by the builder's view.
func referenceKnownHolders(b *Builder, l blob.Line) []int {
	hs := b.table.Holders(l)
	if b.view == nil {
		return hs
	}
	out := make([]int, 0, len(hs))
	for _, h := range hs {
		if b.view.Contains(h) {
			out = append(out, h)
		}
	}
	return out
}

// referencePickExtras selects count distinct holders different from
// primary.
func referencePickExtras(b *Builder, holders []int, primary, count int) []int {
	if count <= 0 || len(holders) <= 1 {
		return nil
	}
	if count > len(holders)-1 {
		count = len(holders) - 1
	}
	out := make([]int, 0, count)
	seen := map[int]bool{primary: true}
	for len(out) < count {
		h := holders[b.rng.Intn(len(holders))]
		if seen[h] {
			continue
		}
		seen[h] = true
		out = append(out, h)
	}
	return out
}
