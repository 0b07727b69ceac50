package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/fetch"
	"pandas/internal/ids"
	"pandas/internal/wire"
)

func TestStampTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab stampTable
	for round := 0; round < 200; round++ {
		tab.reset()
		ref := map[uint32]int32{}
		if round == 100 {
			// Force the generation counter to wrap: stale slots must not
			// come back to life.
			tab.gen = ^uint32(0)
			tab.reset()
		}
		keys := 1 + rng.Intn(300)
		for i := 0; i < 4*keys; i++ {
			key := uint32(rng.Intn(keys)) * 0x10001
			switch rng.Intn(3) {
			case 0:
				got, ok := tab.get(key)
				want, wantOK := ref[key]
				if ok != wantOK || got != want {
					t.Fatalf("round %d get(%d) = %d,%v want %d,%v", round, key, got, ok, want, wantOK)
				}
			default:
				v, fresh := tab.ref(key)
				if _, had := ref[key]; fresh == had {
					t.Fatalf("round %d ref(%d) fresh=%v but present=%v", round, key, fresh, had)
				}
				if fresh && *v != 0 {
					t.Fatalf("round %d fresh slot for %d holds %d", round, key, *v)
				}
				*v = int32(i)
				ref[key] = int32(i)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("round %d holds %d keys, want %d", round, tab.n, len(ref))
		}
		for key, want := range ref {
			if got, ok := tab.get(key); !ok || got != want {
				t.Fatalf("round %d final get(%d) = %d,%v want %d", round, key, got, ok, want)
			}
		}
	}
}

// planFixture returns node 0 of a network of the given size in the state
// its first fetch round plans from: the builder's whole seed batch
// ingested (cells, CB parcels of the other holders), nothing queried yet.
func planFixture(tb testing.TB, cfg Config, nodes int) *Node {
	tb.Helper()
	nodeIDs := make([]ids.NodeID, nodes)
	for i := range nodeIDs {
		nodeIDs[i] = ids.NewTestIdentity(int64(i)).ID
	}
	var seed assign.Seed
	seed[0] = 7
	table, err := NewTable(cfg.Assign, seed, nodeIDs)
	if err != nil {
		tb.Fatal(err)
	}
	btr := &captureTransport{}
	NewBuilder(cfg, nodes, ids.NewTestIdentity(999).ID, table, btr, 1).SeedSlot(1)
	node := NewNode(cfg, 0, table, &captureTransport{}, 11)
	node.StartSlot(1)
	for _, s := range btr.sends {
		if s.to == 0 {
			node.HandleMessage(nodes, s.size, s.payload)
		}
	}
	if node.phase != phaseFetching || node.round != 1 || len(node.boost) == 0 {
		tb.Fatalf("fixture: phase=%v round=%d parcels=%d", node.phase, node.round, len(node.boost))
	}
	node.queryRound.reset()
	return node
}

// replan runs the planning path of one round from the fixture's state.
func replan(n *Node, ps *planScratch) int {
	n.outstanding = n.outstanding[:0]
	n.missingCells(ps)
	return len(n.planRound(ps))
}

func denseConfig() (Config, int) {
	return TestConfig(), 1500 // 32x32, 2+2 custody: 94 holders per line
}

func sparseConfig() (Config, int) {
	cfg := TestConfig()
	cfg.Blob = blob.Params{K: 32, CellBytes: 512, ProofBytes: 48}
	cfg.Assign = assign.Params{Rows: 4, Cols: 4, N: cfg.Blob.N()}
	cfg.Samples = 30
	return cfg, 160 // 64x64, 4+4 custody: 10 holders per line
}

// TestPlanRoundAllocatesNothingWarm: once the scratch has grown to the
// round's size, computing F and planning it allocates nothing — not the
// plan either, which aliases the scratch.
func TestPlanRoundAllocatesNothingWarm(t *testing.T) {
	for name, fixture := range map[string]func() (Config, int){"dense94": denseConfig, "sparse10": sparseConfig} {
		cfg, nodes := fixture()
		node := planFixture(t, cfg, nodes)
		ps := new(planScratch)
		if replan(node, ps) == 0 {
			t.Fatalf("%s: fixture plans no query", name)
		}
		if allocs := testing.AllocsPerRun(20, func() { replan(node, ps) }); allocs != 0 {
			t.Errorf("%s: a warm planning round allocated %v times", name, allocs)
		}
	}
}

// referenceCellsOf is cellsOf as it was before it read the round's
// counts: every cell of F the peer covers, with the peer's assignment
// loaded and every pending sample checked whatever their counts.
// fetch.PlanLazyInto drops the cells already at k, so planning through
// it must give the plan planRound gives.
func referenceCellsOf(n *Node, ps *planScratch, peer int) []int {
	var out []int
	a := n.table.Assignment(peer)
	idx, _ := ps.peers.get(uint32(peer))
	if span := ps.boostSpan[idx]; span[1] > span[0] {
		bc := ps.boostCells[span[0]:span[1]]
		out = append(out, bc...)
		for _, s := range ps.samples {
			if a.Covers(ps.F[s]) && !slices.Contains(bc, s) {
				out = append(out, s)
			}
		}
		return out
	}
	seen := map[int32]bool{}
	for _, l := range a.Lines() {
		for _, i := range ps.cellsOn(l, n.cfg.Blob.N()) {
			if !seen[i] {
				seen[i] = true
				out = append(out, int(i))
			}
		}
	}
	return out
}

// referenceBoostCells is the F indices the peer's CB parcels name, found
// by probing every position of every parcel the node holds for it,
// whether or not the parcel's line crosses F.
func referenceBoostCells(n *Node, ps *planScratch, peer int) []int {
	var out []int
	seen := map[int32]bool{}
	for _, p := range n.boost {
		if int(p.peer) != peer {
			continue
		}
		for pos := int(p.start); pos < int(p.start)+int(p.count); pos++ {
			if i, ok := ps.cellIdx.get(cellKey(cellOnLine(p.line, pos))); ok && !seen[i] {
				seen[i] = true
				out = append(out, int(i))
			}
		}
	}
	return out
}

// TestPlanRoundMatchesReference: over rounds 1-6 (k = 1, 2, 4, 6, 8, 10),
// each round's in-flight requests counting toward the next, planRound
// sends the queries, with the cells in the order, that planning its
// candidates through referenceCellsOf sends, and every candidate's
// boosted cells are those referenceBoostCells finds. The health fixtures
// hold a banned peer and a peer in backoff, which no candidate list may
// hold.
func TestPlanRoundMatchesReference(t *testing.T) {
	for _, fx := range []struct {
		name    string
		fixture func() (Config, int)
		health  bool
	}{
		{"dense94", denseConfig, false},
		{"sparse10", sparseConfig, false},
		{"dense94-health", denseConfig, true},
		{"sparse10-health", sparseConfig, true},
	} {
		cfg, nodes := fx.fixture()
		node := planFixture(t, cfg, nodes)
		var skipped []int
		if fx.health {
			skipped = holdHealth(t, node)
		}
		ps := new(planScratch)
		node.outstanding = node.outstanding[:0]
		sent, boosted := 0, 0
		for round := 1; round <= 6; round++ {
			node.round = round
			node.missingCells(ps)
			var got []fetch.Query
			for _, q := range node.planRound(ps) {
				got = append(got, fetch.Query{Peer: q.Peer, Cells: slices.Clone(q.Cells)})
			}
			want := fetch.PlanLazyFrom(ps.scored, slices.Clone(ps.before), ps.k, func(peer int) []int {
				return referenceCellsOf(node, ps, peer)
			})
			if !slices.EqualFunc(got, want, func(a, b fetch.Query) bool {
				return a.Peer == b.Peer && slices.Equal(a.Cells, b.Cells)
			}) {
				t.Fatalf("%s round %d (k=%d): plan differs from the reference\n got  %v\n want %v", fx.name, round, ps.k, got, want)
			}
			sent += len(got)
			for idx, c := range ps.scored {
				if slices.Contains(skipped, c.Peer) {
					t.Fatalf("%s round %d: peer %d is a candidate, but banned or backed off", fx.name, round, c.Peer)
				}
				span := ps.boostSpan[idx]
				gotCells, wantCells := ps.boostCells[span[0]:span[1]], referenceBoostCells(node, ps, c.Peer)
				if !slices.Equal(gotCells, wantCells) {
					t.Fatalf("%s round %d: peer %d boosted for %v, want %v", fx.name, round, c.Peer, gotCells, wantCells)
				}
				if len(gotCells) > 0 {
					boosted++
				}
			}
		}
		if sent == 0 || boosted == 0 {
			t.Fatalf("%s: %d queries, %d boosted peers: the fixture exercises nothing", fx.name, sent, boosted)
		}
	}
}

// scoreOf returns the peer's score in the round ps last planned.
func scoreOf(ps *planScratch, peer int) (int, bool) {
	idx, ok := ps.peers.get(uint32(peer))
	if !ok || idx == rejected {
		return 0, false
	}
	return ps.scored[idx].Score, true
}

// holdHealth bans the first peer node's round-2 plan asks, backs off a
// CB-listed candidate of that round (one the holder window left out and
// the boost admitted, where there is one: the dense fixture has two) and
// gives a third candidate three failures and an expired backoff. It
// checks the third's penalty and returns the other two.
func holdHealth(t *testing.T, node *Node) []int {
	t.Helper()
	ps := new(planScratch)
	node.round = 2
	defer func() { node.round = 1 }()
	node.missingCells(ps)
	banned := node.planRound(ps)[0].Peer
	var listed []int
	for _, gi := range ps.admit {
		listed = append(listed, int(ps.groups[gi].peer))
	}
	for _, b := range node.boost {
		listed = append(listed, int(b.peer))
	}
	backedOff, penalized := -1, -1
	for _, p := range listed {
		if _, ok := scoreOf(ps, p); ok && p != banned {
			backedOff = p
			break
		}
	}
	for _, c := range ps.scored {
		if c.Peer != banned && c.Peer != backedOff {
			penalized = c.Peer
			break
		}
	}
	if backedOff < 0 || penalized < 0 {
		t.Fatal("fixture has too few candidates")
	}
	before, _ := scoreOf(ps, penalized)
	node.SetLiveness(true)
	node.badPeers = map[int]bool{banned: true}
	node.reportFailure(backedOff, false)
	node.health[penalized] = peerHealth{failures: 3}
	node.outstanding = node.outstanding[:0]
	node.missingCells(ps)
	node.planRound(ps)
	node.outstanding = node.outstanding[:0]
	got, _ := scoreOf(ps, penalized)
	if want := max(before-3*healthPenalty, 1); got != want {
		t.Fatalf("penalized peer %d scores %d, want %d", penalized, got, want)
	}
	return []int{banned, backedOff}
}

// BenchmarkPlanRound measures one node's planning path for one round —
// missingCells then planRound — at the two densities the slot benchmark
// runs: sim_dense's 94 holders per line (holder window and CB fallback
// admission engaged) and sim_real_faulty's 10. Run with a fixed iteration
// count: -benchtime 2000x -benchmem.
func BenchmarkPlanRound(b *testing.B) {
	for _, bc := range []struct {
		name    string
		fixture func() (Config, int)
	}{{"dense94", denseConfig}, {"sparse10", sparseConfig}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg, nodes := bc.fixture()
			node := planFixture(b, cfg, nodes)
			ps := new(planScratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				planSink += replan(node, ps)
			}
		})
	}
}

var planSink int

// TestLateSeedAfterWatchdog: a seed datagram that carries one of the
// node's own boost parcels and arrives after the seed-quiet watchdog has
// given up on the batch used to write into a nil map. It must neither
// panic nor promise anything — the cells it names stay fetchable — and
// the node still consolidates.
func TestLateSeedAfterWatchdog(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	a := table.Assignment(0)
	l := a.Lines()[0]
	rank := table.HolderRank(l, 0)
	first := seedFor(node, table, cfg, 1, 0.1)
	first.ChunkCount = 2
	node.HandleMessage(99, 100, first)
	tr.advance(cfg.SeedWait + time.Millisecond)
	if !node.seedOver {
		t.Fatal("watchdog did not fire")
	}

	late := &wire.Seed{
		Slot: 1, ChunkIndex: 1, ChunkCount: 3, // still not the whole batch
		Boost: [][]wire.BoostEntry{{{
			Line: l, HolderRef: uint16(rank), Start: 0, Count: uint16(cfg.Blob.N()),
		}}},
	}
	node.HandleMessage(99, 100, late)
	if p := promisedCells(node); len(p) != 0 {
		t.Fatalf("late datagram promised %d cells after the seed flow ended", len(p))
	}
	onLine := 0
	for _, id := range node.missingCells(new(planScratch)) {
		if l.Contains(id) {
			onLine++
		}
	}
	if onLine == 0 {
		t.Fatalf("no cell of %v is fetchable after the late datagram", l)
	}

	var cells []wire.Cell
	for _, cl := range a.Lines() {
		for pos := 0; pos < cfg.Blob.N(); pos++ {
			cells = append(cells, wire.Cell{ID: cellOnLine(cl, pos)})
		}
	}
	node.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: cells})
	if !node.Metrics().Consolidated {
		t.Fatal("node did not consolidate after the late datagram")
	}
}

// TestSeedSignatureVerifiedOncePerBatch: the datagrams of a batch share
// one signature and only the first is verified; anything that is not a
// byte-for-byte repeat of the accepted triple takes the full check.
func TestSeedSignatureVerifiedOncePerBatch(t *testing.T) {
	node, table, _, cfg := nodeFixture(t, 60)
	proposer := ids.NewTestIdentity(1000)
	node.SetSeedVerification(proposer.Public)
	node.StartSlot(1)
	builderID := ids.NewTestIdentity(999).ID
	signed := func() *wire.Seed {
		m := seedFor(node, table, cfg, 1, 0.1)
		m.ChunkCount = 8
		m.Builder = builderID
		copy(m.ProposerSig[:], proposer.Sign(wire.SeedSigningBytes(1, builderID)))
		return m
	}
	chunks := func() int { return node.seedChunks }

	node.HandleMessage(99, 100, signed())
	if chunks() != 1 || !node.seedSig.ok {
		t.Fatal("valid seed rejected")
	}
	node.HandleMessage(99, 100, signed()) // cache hit
	if chunks() != 2 {
		t.Fatal("repeat of the accepted signature rejected")
	}
	forged := signed()
	forged.ProposerSig[5] ^= 1
	node.HandleMessage(99, 100, forged)
	if chunks() != 2 {
		t.Fatal("forged signature accepted after a good one")
	}
	other := signed()
	other.Builder = ids.NewTestIdentity(998).ID // signature is for builder 999
	node.HandleMessage(99, 100, other)
	if chunks() != 2 {
		t.Fatal("signature accepted for a builder it does not cover")
	}
	node.HandleMessage(99, 100, signed())
	if chunks() != 3 {
		t.Fatal("good signature rejected after a forged one")
	}
	// A new proposer key invalidates what the old one accepted.
	node.SetSeedVerification(ids.NewTestIdentity(1001).Public)
	node.HandleMessage(99, 100, signed())
	if chunks() != 3 {
		t.Fatal("signature accepted from the cache after the proposer key changed")
	}
}

// TestMissingCellsAsksDeficitPlusHedge pins the fetch size of one custody
// line: nothing once held and promised cells reach K, and otherwise the
// deficit d to K plus a hedge of ⌈d/4⌉. Promised cells stop counting when
// the seed flow ends.
func TestMissingCellsAsksDeficitPlusHedge(t *testing.T) {
	for _, tc := range []struct {
		name           string
		held, promised int
		seedOver       bool
		want           int
	}{
		{"held and promised reach K", 6, 10, false, 0},
		{"held alone passes K", 17, 0, false, 0},
		{"deficit of one", 5, 10, false, 1 + 1},
		{"deficit of seven", 3, 6, false, 7 + 2},
		{"nothing held or promised", 0, 0, false, 16 + 4},
		{"promised count as missing once the seed flow ends", 6, 10, true, 10 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, table, _, cfg := nodeFixture(t, 60)
			if cfg.Blob.K != 16 {
				t.Fatalf("table assumes K = 16, got %d", cfg.Blob.K)
			}
			node.StartSlot(1)
			clear(node.pendingSmp) // count custody cells only
			l := node.store.lineAt(0)
			if tc.promised > 0 {
				node.HandleMessage(99, 100, ownBoost(table, 0, []blob.Line{l}, tc.promised, 2))
			}
			var held []wire.Cell
			for pos := cfg.Blob.N() - tc.held; pos < cfg.Blob.N(); pos++ {
				held = append(held, wire.Cell{ID: cellOnLine(l, pos)})
			}
			node.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: held})
			if tc.seedOver {
				node.endSeedFlow()
			}
			if got := node.store.LineCount(l); got != tc.held && got != cfg.Blob.N() {
				t.Fatalf("line holds %d cells, want %d", got, tc.held)
			}
			asked := 0
			for _, id := range node.missingCells(new(planScratch)) {
				if l.Contains(id) {
					asked++
				}
			}
			if asked != tc.want {
				t.Fatalf("held %d, promised %d: asked %d cells of %v, want %d",
					tc.held, tc.promised, asked, l, tc.want)
			}
		})
	}
}
