package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

func nodeFixture(t *testing.T, n int) (*Node, *Table, *captureTransport, Config) {
	t.Helper()
	cfg := TestConfig()
	nodeIDs := make([]ids.NodeID, n)
	for i := range nodeIDs {
		nodeIDs[i] = ids.NewTestIdentity(int64(i)).ID
	}
	var seed assign.Seed
	seed[0] = 3
	table, err := NewTable(cfg.Assign, seed, nodeIDs)
	if err != nil {
		t.Fatal(err)
	}
	tr := &captureTransport{}
	node := NewNode(cfg, 0, table, tr, 11)
	return node, table, tr, cfg
}

func seedFor(node *Node, table *Table, cfg Config, slot uint64, frac float64) *wire.Seed {
	a := table.Assignment(node.Index())
	m := &wire.Seed{Slot: slot, ChunkIndex: 0, ChunkCount: 1}
	for _, l := range a.Lines() {
		limit := int(float64(cfg.Blob.N()) * frac)
		for pos := 0; pos < limit; pos++ {
			m.Cells = append(m.Cells, wire.Cell{ID: cellOnLine(l, pos)})
		}
	}
	return m
}

func TestNodeSeedTriggersFetch(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	if node.phase != phaseWaiting {
		t.Fatal("fetching before seeds")
	}
	node.HandleMessage(99, 100, seedFor(node, table, cfg, 1, 0.3))
	if node.phase != phaseFetching {
		t.Fatal("complete seed batch did not start fetching")
	}
	if !node.Metrics().HasSeed || node.Metrics().SeedCells == 0 {
		t.Fatal("seed metrics not recorded")
	}
	// Round 1 must have sent queries.
	queries := 0
	for _, s := range tr.sends {
		if _, ok := s.payload.(*wire.Query); ok {
			queries++
		}
	}
	if queries == 0 {
		t.Fatal("no queries sent in round 1")
	}
}

func TestNodeIncompleteBatchPipelinesAndWatchdogExpiresPromises(t *testing.T) {
	// Fetching is pipelined: it starts at the FIRST seed chunk that
	// carries cells, with cells the builder promised excluded from F. If the batch never
	// completes, the watchdog declares the seed flow done and releases
	// the promises.
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	m := seedFor(node, table, cfg, 1, 0.3)
	m.ChunkCount = 2 // claim another chunk is coming
	node.HandleMessage(99, 100, m)
	if node.phase != phaseFetching {
		t.Fatal("pipelined fetch did not start on first chunk")
	}
	if node.seedOver {
		t.Fatal("batch marked done while a chunk is outstanding")
	}
	tr.advance(cfg.SeedWait + time.Millisecond)
	if !node.seedOver {
		t.Fatal("watchdog did not expire the seed flow")
	}
	if len(promisedCells(node)) > 0 {
		t.Fatal("promises not released after watchdog")
	}
}

func TestNodeIgnoresWrongSlot(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(2)
	node.HandleMessage(99, 100, seedFor(node, table, cfg, 1, 0.5)) // stale slot
	if node.Metrics().HasSeed {
		t.Fatal("accepted stale-slot seed")
	}
	_ = tr
}

func TestNodeQueryAnsweredFromStore(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	a := table.Assignment(0)
	l := a.Lines()[0]
	held := cellOnLine(l, 0)
	node.HandleMessage(99, 100, &wire.Seed{
		Slot: 1, ChunkIndex: 0, ChunkCount: 1,
		Cells: []wire.Cell{{ID: held}},
	})
	tr.sends = nil
	node.HandleMessage(7, 50, &wire.Query{Slot: 1, Cells: []blob.CellID{held}})
	found := false
	for _, s := range tr.sends {
		if r, ok := s.payload.(*wire.Response); ok && s.to == 7 {
			for _, c := range r.Cells {
				if c.ID == held {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("held cell not served")
	}
	_ = cfg
}

func TestNodeQueryBufferedUntilCellArrives(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	a := table.Assignment(0)
	l := a.Lines()[0]
	wanted := cellOnLine(l, 5)

	// Query for an assigned-but-missing cell: no response yet.
	node.HandleMessage(7, 50, &wire.Query{Slot: 1, Cells: []blob.CellID{wanted}})
	for _, s := range tr.sends {
		if _, ok := s.payload.(*wire.Response); ok {
			t.Fatal("responded before having the cell")
		}
	}
	// Cell arrives via a seed; the buffered query must be answered after
	// the coalescing window.
	node.HandleMessage(99, 100, &wire.Seed{
		Slot: 1, ChunkIndex: 0, ChunkCount: 1,
		Cells: []wire.Cell{{ID: wanted}},
	})
	tr.advance(tr.now + flushDelay + time.Millisecond)
	answered := false
	for _, s := range tr.sends {
		if r, ok := s.payload.(*wire.Response); ok && s.to == 7 {
			for _, c := range r.Cells {
				if c.ID == wanted {
					answered = true
				}
			}
		}
	}
	if !answered {
		t.Fatal("buffered query never answered")
	}
	_ = cfg
}

func TestNodeUncoveredQueryIgnored(t *testing.T) {
	node, table, tr, _ := nodeFixture(t, 60)
	node.StartSlot(1)
	// Find a cell NOT covered by node 0's assignment.
	a := table.Assignment(0)
	var uncovered blob.CellID
	found := false
	for r := 0; r < 32 && !found; r++ {
		for c := 0; c < 32 && !found; c++ {
			id := blob.CellID{Row: uint16(r), Col: uint16(c)}
			if !a.Covers(id) {
				uncovered, found = id, true
			}
		}
	}
	if !found {
		t.Skip("assignment covers the whole matrix")
	}
	node.HandleMessage(7, 50, &wire.Query{Slot: 1, Cells: []blob.CellID{uncovered}})
	if len(node.asks) != 0 {
		t.Fatal("buffered a query for an uncovered cell")
	}
	_ = tr
}

func TestNodePromisedCellsNotRequested(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	a := table.Assignment(0)
	l := a.Lines()[0]
	// Seed chunk 1 of 2: boost map promising positions [0, K) of line l to
	// THIS node.
	rank := table.HolderRank(l, 0)
	if rank < 0 {
		t.Fatal("node 0 must hold its own line")
	}
	m := &wire.Seed{
		Slot: 1, ChunkIndex: 0, ChunkCount: 2,
		Boost: [][]wire.BoostEntry{{{
			Line: l, HolderRef: uint16(rank), Start: 0, Count: uint16(cfg.Blob.K),
		}}},
	}
	node.HandleMessage(99, 100, m)
	// Fetch starts via watchdog (batch incomplete).
	tr.advance(cfg.SeedWait + time.Millisecond)
	if node.phase != phaseFetching {
		t.Fatal("watchdog did not fire")
	}
	// Wait: watchdog expiry clears promises. Instead verify via direct
	// missing computation BEFORE expiry on a fresh fixture.
	node2 := NewNode(cfg, 0, table, &captureTransport{}, 12)
	node2.StartSlot(1)
	node2.HandleMessage(99, 100, m)
	missing := node2.missingCells(new(planScratch))
	for _, id := range missing {
		if l.Contains(id) && int(positionOn(l, id)) < cfg.Blob.K {
			t.Fatalf("promised cell %v still requested", id)
		}
	}
}

// TestNodePlansRoundOneOnWholeBoostMap pins when round 1 starts: not at a
// datagram that carries boost runs alone, which may carry part of the
// consolidation-boost map, but at the first datagram that carries cells:
// the builder's last boost datagram, which carries the node's first cells
// too, or a cell datagram after every boost datagram. Round 1 then skips
// every cell promised to the node and asks the boosted peer for the
// cells seeded to it. The own parcel promises K-4 cells, so the peer's 4
// seeded cells are exactly the line's deficit to K.
func TestNodePlansRoundOneOnWholeBoostMap(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		t.Run(map[bool]string{false: "boost-then-cells", true: "boost-with-cells"}[mixed], func(t *testing.T) {
			node, table, tr, cfg := nodeFixture(t, 60)
			node.StartSlot(1)
			k := cfg.Blob.K
			l := table.Assignment(0).Lines()[0]
			peer := -1
			for _, h := range table.Holders(l) {
				if h != 0 {
					peer = h
					break
				}
			}
			if peer < 0 {
				t.Fatalf("line %v has no other holder", l)
			}
			boost := &wire.Seed{Slot: 1, ChunkIndex: 0, ChunkCount: 3, Boost: [][]wire.BoostEntry{{
				{Line: l, HolderRef: uint16(table.HolderRank(l, 0)), Start: 0, Count: uint16(k - 4)},
				{Line: l, HolderRef: uint16(table.HolderRank(l, peer)), Start: uint16(k), Count: 4},
			}}}
			cells := []wire.Cell{{ID: cellOnLine(l, 0)}, {ID: cellOnLine(l, 1)}}
			if mixed {
				boost.Cells = cells
			} else {
				node.HandleMessage(99, 100, boost)
				if node.phase != phaseWaiting || len(tr.sends) > 0 {
					t.Fatal("a datagram without cells started round 1")
				}
			}
			first := boost
			if !mixed {
				first = &wire.Seed{Slot: 1, ChunkIndex: 1, ChunkCount: 3, Cells: cells}
			}
			node.HandleMessage(99, 100, first)
			if node.phase != phaseFetching {
				t.Fatal("the first cell-carrying datagram did not start round 1")
			}
			askedPeer := 0
			for _, s := range tr.sends {
				q, ok := s.payload.(*wire.Query)
				if !ok {
					continue
				}
				for _, id := range q.Cells {
					if !l.Contains(id) {
						continue
					}
					pos := int(positionOn(l, id))
					if pos < k-4 {
						t.Fatalf("round 1 asked peer %d for promised cell %v", s.to, id)
					}
					if pos < k+4 && s.to == peer {
						askedPeer++
					}
				}
			}
			if askedPeer != 4 {
				t.Fatalf("boosted peer %d asked for %d of its 4 seeded cells", peer, askedPeer)
			}
		})
	}
}

// TestNodeSkipsBoostPastLineEnd pins that a boost entry naming no cell of
// its line — its start at or past the line's width — leaves the node's
// boost parcels alone: a zero-count parcel would still group its peer
// into round 1's plan with coverage and no seeded cell.
func TestNodeSkipsBoostPastLineEnd(t *testing.T) {
	node, table, _, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	width := cfg.Blob.N()
	l := table.Assignment(0).Lines()[0]
	peer := -1
	for _, h := range table.Holders(l) {
		if h != 0 {
			peer = h
			break
		}
	}
	if peer < 0 {
		t.Fatalf("line %v has no other holder", l)
	}
	ref := uint16(table.HolderRank(l, peer))
	node.HandleMessage(99, 100, &wire.Seed{Slot: 1, ChunkIndex: 0, ChunkCount: 2, Boost: [][]wire.BoostEntry{{
		{Line: l, HolderRef: ref, Start: uint16(width), Count: 3},
		{Line: l, HolderRef: ref, Start: uint16(width + 7), Count: 1},
	}}})
	if len(node.boost) != 0 {
		t.Fatalf("entries past the line's end left boost parcels %+v", node.boost)
	}
}

// TestNodeBoostOnlyBatchStartsFetchWhenComplete covers a node the builder
// seeded no cells: its batch is boost datagrams only, and round 1 starts
// at the last of them.
func TestNodeBoostOnlyBatchStartsFetchWhenComplete(t *testing.T) {
	node, table, _, _ := nodeFixture(t, 60)
	node.StartSlot(1)
	lines := table.Assignment(0).Lines()
	for i, l := range lines[:2] {
		node.HandleMessage(99, 100, &wire.Seed{Slot: 1, ChunkIndex: uint16(i), ChunkCount: 2,
			Boost: [][]wire.BoostEntry{{{Line: l, HolderRef: uint16(table.HolderRank(l, 0)), Start: 0, Count: 2}}}})
		if want := i == 1; (node.phase == phaseFetching) != want {
			t.Fatalf("after boost datagram %d of 2: phase %v, want fetching %v", i+1, node.phase, want)
		}
	}
}

// TestNodePromiseEndsWhenCellLands pins that held and promised cells are
// disjoint: missingCells counts a line's held and promised cells
// together, so a promised cell that lands must leave the promised set,
// and a promise for a cell already held is not recorded.
func TestNodePromiseEndsWhenCellLands(t *testing.T) {
	node, table, _, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	k := cfg.Blob.K
	l := table.Assignment(0).Lines()[0]
	early := cellOnLine(l, k-1)
	node.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: []wire.Cell{{ID: early}}})
	node.HandleMessage(99, 100, &wire.Seed{Slot: 1, ChunkIndex: 0, ChunkCount: 3,
		Boost: [][]wire.BoostEntry{{{Line: l, HolderRef: uint16(table.HolderRank(l, 0)), Start: 0, Count: uint16(k)}}}})
	if p := promisedCells(node); p[early] || len(p) != k-1 {
		t.Fatalf("promised %d cells (held one included: %v), want %d", len(p), p[early], k-1)
	}
	m := &wire.Seed{Slot: 1, ChunkIndex: 1, ChunkCount: 3}
	for pos := 0; pos < k/2; pos++ {
		m.Cells = append(m.Cells, wire.Cell{ID: cellOnLine(l, pos)})
	}
	node.HandleMessage(99, 100, m)
	for _, c := range m.Cells {
		if node.promised(c.ID) {
			t.Fatalf("landed cell %v still promised", c.ID)
		}
	}
	if got, want := len(promisedCells(node)), k-1-k/2; got != want {
		t.Fatalf("%d cells promised after %d landed, want %d", got, k/2, want)
	}
}

// positionOn returns a cell's position along a line.
func positionOn(l blob.Line, id blob.CellID) uint16 {
	if l.Kind == blob.Row {
		return id.Col
	}
	return id.Row
}

func TestNodeReconstructionCompletesLines(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	a := table.Assignment(0)
	l := a.Lines()[0]
	// Deliver exactly half of line l: reconstruction must complete it.
	m := &wire.Seed{Slot: 1, ChunkIndex: 0, ChunkCount: 1}
	for pos := 0; pos < cfg.Blob.K; pos++ {
		m.Cells = append(m.Cells, wire.Cell{ID: cellOnLine(l, pos)})
	}
	node.HandleMessage(99, 100, m)
	if !node.Store().LineComplete(l) {
		t.Fatalf("line %v not reconstructed: %d cells", l, node.Store().LineCount(l))
	}
	_ = tr
}

// TestNodeReconstructionCascadesToCrossingLines pins that reconstruction
// runs to a fixpoint: a custody column one cell short of half, which no
// received cell touches, completes in the same call in which a custody
// row's decode restores its K-th cell.
func TestNodeReconstructionCascadesToCrossingLines(t *testing.T) {
	node, table, _, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	k := cfg.Blob.K
	var row, col blob.Line
	for _, l := range table.Assignment(0).Lines() {
		if l.Kind == blob.Row {
			row = l
		} else {
			col = l
		}
	}
	var colCells, rowCells []wire.Cell
	for pos := 0; len(colCells) < k-1; pos++ {
		if pos != int(row.Index) {
			colCells = append(colCells, wire.Cell{ID: cellOnLine(col, pos)})
		}
	}
	for pos := 0; len(rowCells) < k; pos++ {
		if pos != int(col.Index) {
			rowCells = append(rowCells, wire.Cell{ID: cellOnLine(row, pos)})
		}
	}
	node.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: colCells})
	if got := node.Store().LineCount(col); got != k-1 {
		t.Fatalf("column %v holds %d cells before the row lands, want %d", col, got, k-1)
	}
	node.HandleMessage(6, 100, &wire.Response{Slot: 1, Cells: rowCells})
	if !node.Store().LineComplete(row) {
		t.Fatalf("row %v not reconstructed: %d cells", row, node.Store().LineCount(row))
	}
	if !node.Store().LineComplete(col) {
		t.Fatalf("column %v not reconstructed after the row's decode gave it its K-th cell: %d cells",
			col, node.Store().LineCount(col))
	}
}

func TestNodeSampleSatisfiedByResponse(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	node.HandleMessage(99, 100, seedFor(node, table, cfg, 1, 0.0)) // empty batch, starts fetch
	if node.Metrics().Sampled {
		t.Fatal("sampled with no data")
	}
	// Deliver all samples via responses.
	var cells []wire.Cell
	for _, s := range node.Samples() {
		cells = append(cells, wire.Cell{ID: s})
	}
	node.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: cells})
	if !node.Metrics().Sampled {
		t.Fatal("samples delivered but not marked sampled")
	}
	if node.Metrics().SampledAt != tr.now {
		t.Fatal("SampledAt not recorded")
	}
}

func TestNodeSeedVerificationRejectsForgery(t *testing.T) {
	node, table, tr, cfg := nodeFixture(t, 60)
	proposer := ids.NewTestIdentity(1000)
	node.SetSeedVerification(proposer.Public)
	node.StartSlot(1)
	m := seedFor(node, table, cfg, 1, 0.3) // zero signature = forged
	node.HandleMessage(99, 100, m)
	if node.Metrics().HasSeed {
		t.Fatal("unsigned seed accepted")
	}
	// Properly signed seed is accepted.
	builderID := ids.NewTestIdentity(999).ID
	m2 := seedFor(node, table, cfg, 1, 0.3)
	m2.Builder = builderID
	copy(m2.ProposerSig[:], proposer.Sign(wire.SeedSigningBytes(1, builderID)))
	node.HandleMessage(99, 100, m2)
	if !node.Metrics().HasSeed {
		t.Fatal("valid seed rejected")
	}
	_ = tr
}

func TestNodeFallbackTimerStartsFetchWithoutSeeds(t *testing.T) {
	node, _, tr, cfg := nodeFixture(t, 60)
	node.StartSlot(1)
	tr.advance(3*cfg.SeedWait + time.Millisecond)
	if node.phase != phaseFetching {
		t.Fatal("fallback timer did not start fetching")
	}
	if node.Metrics().HasSeed {
		t.Fatal("HasSeed without seeds")
	}
}

// TestNodeOutcome pins the one conversion from a node's live view to the
// record every runtime reports: times relative to the given start, -1 for
// a phase that never happened, and consolidation measured from the first
// seed only when both happened.
func TestNodeOutcome(t *testing.T) {
	const start = 12 * time.Second
	ms := func(n int) time.Duration { return start + time.Duration(n)*time.Millisecond }
	rounds := []obsv.RoundStat{{MsgsSent: 3, CellsRequested: 9, CoverageAfter: 0.5}}
	for _, c := range []struct {
		name string
		view obsv.NodeView
		want NodeOutcome
	}{
		{"nothing happened", obsv.NodeView{}, NewNodeOutcome()},
		{"every phase", obsv.NodeView{
			HasSeed: true, FirstSeedAt: ms(100), SeedAt: ms(300),
			Consolidated: true, ConsolidatedAt: ms(700),
			Sampled: true, SampledAt: ms(900),
			FetchMsgsSent: 5, FetchMsgsRecv: 4, FetchBytesSent: 600, FetchBytesRecv: 4_000,
			CorruptRejects: 2, Rounds: rounds,
		}, NodeOutcome{Seed: 100 * time.Millisecond, Consolidation: 700 * time.Millisecond,
			Sampling: 900 * time.Millisecond, BlockRecv: -1, ConsFromSeed: 600 * time.Millisecond,
			JoinedAt: -1, LeftAt: -1, FetchMsgs: 9, FetchBytes: 4_600, CorruptRejects: 2, Rounds: rounds}},
		{"consolidated without a seed", obsv.NodeView{Consolidated: true, ConsolidatedAt: ms(1500)},
			NodeOutcome{Seed: -1, Consolidation: 1500 * time.Millisecond, Sampling: -1, BlockRecv: -1,
				ConsFromSeed: -1, JoinedAt: -1, LeftAt: -1}},
		{"seeded, never consolidated", obsv.NodeView{HasSeed: true, FirstSeedAt: ms(80), SeedAt: ms(80),
			Sampled: true, SampledAt: ms(2500)},
			NodeOutcome{Seed: 80 * time.Millisecond, Consolidation: -1, Sampling: 2500 * time.Millisecond,
				BlockRecv: -1, ConsFromSeed: -1, JoinedAt: -1, LeftAt: -1}},
	} {
		var n Node
		n.obs.View = c.view
		if got := n.Outcome(start); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

// TestPeerHealthBackoffGrowsAndCaps: a peer's first timeout backs it off
// for 1 s, each further one doubles the backoff up to the 30 s cap, and a
// re-armed peer still carries a penalty of 2 per failure.
func TestPeerHealthBackoffGrowsAndCaps(t *testing.T) {
	node, _, tr, _ := nodeFixture(t, 60)
	penalty := func(peer int) int { return node.health[peer].failures * healthPenalty }
	if !node.queryable(9) || penalty(9) != 0 {
		t.Fatal("unknown peer must be healthy")
	}
	node.reportFailure(9, false) // backoff 1s
	if node.queryable(9) {
		t.Fatal("peer queryable during backoff")
	}
	if f := node.health[9].failures; f != 1 {
		t.Fatalf("failures=%d", f)
	}
	tr.now = 1100 * time.Millisecond
	if !node.queryable(9) {
		t.Fatal("peer not re-armed after backoff expiry")
	}
	if penalty(9) != healthPenalty {
		t.Fatalf("re-armed peer carries penalty %d, want %d", penalty(9), healthPenalty)
	}
	node.reportFailure(9, false) // backoff 2s
	if node.queryable(9) {
		t.Fatal("second timeout must re-demote")
	}
	tr.now += 1500 * time.Millisecond
	if node.queryable(9) {
		t.Fatal("backoff did not double")
	}
	tr.now += time.Second
	if !node.queryable(9) {
		t.Fatal("doubled backoff never expired")
	}
	// Drive failures past the cap: backoff must stay at maxBackoff.
	for i := 0; i < 10; i++ {
		node.reportFailure(9, false)
	}
	tr.now += maxBackoff - time.Millisecond
	if node.queryable(9) {
		t.Fatal("backoff shorter than its cap")
	}
	tr.now += 2 * time.Millisecond
	if !node.queryable(9) {
		t.Fatal("backoff exceeded its cap")
	}
	if penalty(9) != 12*healthPenalty {
		t.Fatalf("12 failures carry penalty %d, want %d", penalty(9), 12*healthPenalty)
	}
}

// TestPeerHealthSuccessResets: a reply clears a peer's failures and
// backoff; a garbage reply jumps straight to the capped backoff with the
// failure count of a peer timed out all the way up to it.
func TestPeerHealthSuccessResets(t *testing.T) {
	node, _, tr, _ := nodeFixture(t, 60)
	node.reportFailure(4, false)
	node.reportFailure(4, false)
	if node.queryable(4) || len(node.health) != 1 {
		t.Fatalf("peer 4 not backed off: %+v", node.health)
	}
	node.reportSuccess(4)
	if !node.queryable(4) || len(node.health) != 0 {
		t.Fatal("success did not reset the peer")
	}

	if backoff(capFailures) != maxBackoff || backoff(capFailures-1) >= maxBackoff {
		t.Fatalf("capFailures=%d is not where the backoff reaches its cap", capFailures)
	}
	node.reportFailure(5, true)
	if h := node.health[5]; h.failures != capFailures || h.until != tr.now+maxBackoff {
		t.Fatalf("garbage peer: %+v, want %d failures until %v", h, capFailures, tr.now+maxBackoff)
	}
	node.reportFailure(5, true)
	if f := node.health[5].failures; f != capFailures+1 {
		t.Fatalf("second garbage reply: %d failures, want %d", f, capFailures+1)
	}
	tr.now += maxBackoff - time.Millisecond
	if node.queryable(5) {
		t.Fatal("garbage peer re-armed before the cap")
	}
	node.reportSuccess(5)
	if !node.queryable(5) {
		t.Fatal("success did not clear the garbage peer")
	}
}

// TestPeerHealthOutlivesSlotAndRestart: a peer backed off after a timeout
// and a peer quarantined for garbage in slot s are still skipped by the
// round-1 plan of slot s+1, and by the first plan after this node
// crashes and rejoins. The two are the first peers that plan asks in a
// run of the same fixture that recorded no failure.
func TestPeerHealthOutlivesSlotAndRestart(t *testing.T) {
	cfg, nodes := sparseConfig()
	roundOne := func(node *Node) []int {
		ps := new(planScratch)
		node.round = 1
		node.missingCells(ps)
		var peers []int
		for _, q := range node.planRound(ps) {
			peers = append(peers, q.Peer)
		}
		return peers
	}
	for _, step := range []struct {
		name    string
		restart func(*Node)
	}{
		{"next slot", func(n *Node) { n.StartSlot(2) }},
		{"crash and rejoin", func(n *Node) { n.Stop(); n.JoinSlot(1) }},
	} {
		probe := planFixture(t, cfg, nodes)
		step.restart(probe)
		want := roundOne(probe)
		if len(want) < 2 {
			t.Fatalf("%s: the plan asks %d peers", step.name, len(want))
		}
		timedOut, garbage := want[0], want[1]

		node := planFixture(t, cfg, nodes)
		node.reportFailure(timedOut, false)
		node.reportFailure(garbage, true)
		node.tr.(*captureTransport).now += 500 * time.Millisecond
		step.restart(node)
		got := roundOne(node)
		if slices.Contains(got, timedOut) || slices.Contains(got, garbage) {
			t.Fatalf("%s: plan %v asks a peer still in backoff (%d timed out, %d garbage)", step.name, got, timedOut, garbage)
		}
	}
}
