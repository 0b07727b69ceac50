package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/kzg"
	"pandas/internal/membership"
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
	t.Helper()
	nodeIDs := make([]ids.NodeID, n)
	for i := range nodeIDs {
		nodeIDs[i] = ids.NewTestIdentity(int64(i)).ID
	}
	var seed assign.Seed
	seed[0] = 7
	table, err := NewTable(cfg.Assign, seed, nodeIDs)
	if err != nil {
		t.Fatal(err)
	}
	tr := &captureTransport{}
	b := NewBuilder(cfg, n, ids.NewTestIdentity(999).ID, table, tr, 1)
	return b, table, tr
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
	for node, msgs := range perNode {
		total := int(msgs[0].ChunkCount)
		if total != len(msgs) {
			t.Fatalf("node %d: ChunkCount %d != %d messages", node, total, len(msgs))
		}
		seenIdx := make(map[uint16]bool)
		boostFirst := true
		for i, m := range msgs {
			if int(m.ChunkCount) != total {
				t.Fatal("inconsistent ChunkCount")
			}
			if seenIdx[m.ChunkIndex] {
				t.Fatal("duplicate ChunkIndex")
			}
			seenIdx[m.ChunkIndex] = true
			// Boost-only chunks precede cell chunks.
			if len(m.Boost) > 0 && len(m.Cells) > 0 {
				t.Fatal("mixed boost+cell chunk")
			}
			if len(m.Cells) > 0 {
				boostFirst = false
			}
			if len(m.Boost) > 0 && !boostFirst {
				t.Fatalf("node %d msg %d: boost chunk after cell chunk", node, i)
			}
		}
	}
}

func TestBuilderBoostEntriesResolve(t *testing.T) {
	cfg := TestConfig()
	b, table, tr := builderFixture(t, cfg, 60)
	b.SeedSlot(1)
	for _, s := range tr.sends {
		m := s.payload.(*wire.Seed)
		for _, e := range m.Boost {
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

// TestBuilderBoostMapIsExact pins that the consolidation-boost map names
// exactly the cells each holder was sent: every position of every entry
// reached the holder it names, and per holder the entries add up to the
// cells it received. Nodes plan round 1 on this map, and count their own
// parcels as good as received. With every line held, each line carries
// exactly half of its seeded positions. Withholding and a network too
// small for every line to have a holder break parcels into runs, and the
// map must stay exact there too.
func TestBuilderBoostMapIsExact(t *testing.T) {
	cases := []struct {
		name     string
		policy   Policy
		n        int
		withhold bool
	}{
		{"single", PolicySingle, 60, false},
		{"redundant", PolicyRedundant, 60, false},
		{"minimal", PolicyMinimal, 60, false},
		{"withholding", PolicyRedundant, 60, true},
		{"holderless-lines", PolicySingle, 6, false},
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
			b.SeedSlot(1)
			got := make(map[int]map[blob.CellID]bool)
			entries := make(map[wire.BoostEntry]bool)
			for _, s := range tr.sends {
				m := s.payload.(*wire.Seed)
				for _, c := range m.Cells {
					if got[s.to] == nil {
						got[s.to] = make(map[blob.CellID]bool)
					}
					got[s.to][c.ID] = true
				}
				for _, e := range m.Boost {
					entries[e] = true
				}
			}
			claimed := make(map[int]int)
			perLine := make(map[blob.Line]int)
			for e := range entries {
				holder := table.HolderAt(e.Line, int(e.HolderRef))
				for pos := int(e.Start); pos < int(e.Start)+int(e.Count); pos++ {
					if id := cellOnLine(e.Line, pos); !got[holder][id] {
						t.Fatalf("entry %+v claims cell %v, never sent to holder %d", e, id, holder)
					}
				}
				claimed[holder] += int(e.Count)
				perLine[e.Line] += int(e.Count)
			}
			for holder, cells := range got {
				if claimed[holder] != len(cells) {
					t.Fatalf("holder %d received %d cells, its entries name %d", holder, len(cells), claimed[holder])
				}
			}
			if tc.policy != PolicySingle || tc.n < 60 {
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
	b.SetView(membership.ViewFunc(func(peer int) bool { return peer < 40 }))
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
// datagrams (recipients, sizes, order, payloads, proofs), and an equal
// report — across worker counts and a second slot that reuses every
// arena.
func TestBuilderPipelinedMatchesMonolithic(t *testing.T) {
	cfg := TestConfig()
	cfg.RealPayloads = true
	cfg.Policy = PolicySingle
	data := make([]byte, cfg.Blob.BlobBytes())
	rand.New(rand.NewSource(42)).Read(data)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, workers := range []int{1, 2, 8} {
		// Both builders are rebuilt per worker count so their rngs start
		// from the same state (seeding consumes rng as it plans).
		want, _, wantTr := builderFixture(t, cfg, 80)
		got, _, gotTr := builderFixture(t, cfg, 80)
		for slot := uint64(1); slot <= 2; slot++ { // slot 2 reuses arenas
			wantTr.sends = nil
			gotTr.sends = nil
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
			if gotReport != wantReport {
				t.Fatalf("workers=%d slot=%d: reports differ:\n got %+v\nwant %+v",
					workers, slot, gotReport, wantReport)
			}
			if len(gotTr.sends) != len(wantTr.sends) {
				t.Fatalf("workers=%d slot=%d: %d sends, want %d",
					workers, slot, len(gotTr.sends), len(wantTr.sends))
			}
			for i := range gotTr.sends {
				g, w := gotTr.sends[i], wantTr.sends[i]
				if g.to != w.to || g.size != w.size || g.reliable != w.reliable {
					t.Fatalf("workers=%d slot=%d send %d: envelope differs", workers, slot, i)
				}
				if !reflect.DeepEqual(g.payload, w.payload) {
					t.Fatalf("workers=%d slot=%d send %d: datagram differs", workers, slot, i)
				}
			}
		}
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
