package core

import (
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/wire"
)

// promisedCells lists the cells the node currently counts as promised.
func promisedCells(n *Node) map[blob.CellID]bool {
	out := map[blob.CellID]bool{}
	for li := 0; li < n.store.TrackedLines(); li++ {
		for pos := 0; pos < n.store.n; pos++ {
			if id := cellOnLine(n.store.lineAt(li), pos); n.promised(id) {
				out[id] = true
			}
		}
	}
	return out
}

// String names a phase in test failures.
func (p phase) String() string {
	return [...]string{"down", "waiting", "fetching", "done"}[p]
}

// ownBoost is a boost-only datagram promising the node the first count
// cells of each line.
func ownBoost(table *Table, node int, lines []blob.Line, count, chunks int) *wire.Seed {
	m := &wire.Seed{Slot: 1, ChunkCount: uint16(chunks)}
	for _, l := range lines {
		m.Boost = append(m.Boost, []wire.BoostEntry{{Line: l,
			HolderRef: uint16(table.HolderRank(l, node)), Count: uint16(count)}})
	}
	return m
}

// cellSeed is a seed datagram carrying the given cells.
func cellSeed(chunks int, ids ...blob.CellID) *wire.Seed {
	m := &wire.Seed{Slot: 1, ChunkCount: uint16(chunks)}
	for _, id := range ids {
		m.Cells = append(m.Cells, wire.Cell{ID: id})
	}
	return m
}

// queriesSent counts the queries among a transport's sends.
func queriesSent(tr *captureTransport) int {
	q := 0
	for _, s := range tr.sends {
		if _, ok := s.payload.(*wire.Query); ok {
			q++
		}
	}
	return q
}

// TestNodePhaseTransitions takes every edge of the node's phase machine
// once, from a fresh node of a 60-node network started at slot 1, and
// checks where each edge leaves it.
func TestNodePhaseTransitions(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config)
	}{
		{"boost-only datagram stays waiting", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			n.HandleMessage(99, 100, ownBoost(table, 0, []blob.Line{n.store.lineAt(0)}, 2, 3))
			if n.phase != phaseWaiting || n.seedOver || len(tr.sends) > 0 {
				t.Fatalf("phase %v, seed over %v, %d sends", n.phase, n.seedOver, len(tr.sends))
			}
		}},
		{"cell datagram starts fetching", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			l := n.store.lineAt(0)
			n.HandleMessage(99, 100, cellSeed(3, cellOnLine(l, 0)))
			if n.phase != phaseFetching || n.round != 1 || queriesSent(tr) == 0 {
				t.Fatalf("phase %v, round %d, %d queries", n.phase, n.round, queriesSent(tr))
			}
			if n.seedOver {
				t.Fatal("a datagram of three ended the seed flow")
			}
		}},
		{"batch complete ends the seed flow", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			lines := []blob.Line{n.store.lineAt(0)}
			n.HandleMessage(99, 100, ownBoost(table, 0, lines, cfg.Blob.N(), 2))
			if len(promisedCells(n)) == 0 {
				t.Fatal("own parcel promised nothing")
			}
			n.HandleMessage(99, 100, cellSeed(2))
			if !n.seedOver || len(promisedCells(n)) != 0 || n.phase != phaseFetching {
				t.Fatalf("seed over %v, %d promised, phase %v", n.seedOver, len(promisedCells(n)), n.phase)
			}
		}},
		{"no seed at all starts fetching at exactly 3xSeedWait", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			tr.advance(3*cfg.SeedWait - 1)
			if n.phase != phaseWaiting {
				t.Fatalf("phase %v before the deadline", n.phase)
			}
			tr.advance(3 * cfg.SeedWait)
			if n.phase != phaseFetching || n.seedOver {
				t.Fatalf("phase %v, seed over %v at the deadline", n.phase, n.seedOver)
			}
		}},
		{"a quiet flow ends at exactly last datagram + SeedWait", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			l := n.store.lineAt(0)
			tr.advance(100 * time.Millisecond)
			n.HandleMessage(99, 100, cellSeed(3, cellOnLine(l, 0)))
			last := 300 * time.Millisecond
			tr.advance(last)
			n.HandleMessage(99, 100, cellSeed(3, cellOnLine(l, 1)))
			tr.advance(last + cfg.SeedWait - 1)
			if n.seedOver {
				t.Fatal("flow ended before last datagram + SeedWait")
			}
			tr.advance(last + cfg.SeedWait)
			if !n.seedOver {
				t.Fatal("flow still open at last datagram + SeedWait")
			}
		}},
		{"F empty with promised cells pauses, and the seed deadline resumes", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			// Samples held, every custody cell promised: round 1 finds
			// nothing to ask.
			samples := make([]blob.CellID, 0, len(n.samples))
			for _, id := range n.samples {
				if !n.store.Covered(id) {
					samples = append(samples, id)
				}
			}
			n.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: cellSeed(1, samples...).Cells})
			lines := make([]blob.Line, n.store.TrackedLines())
			for li := range lines {
				lines[li] = n.store.lineAt(li)
			}
			n.HandleMessage(99, 100, ownBoost(table, 0, lines, cfg.Blob.N(), 3))
			at := tr.now
			n.HandleMessage(99, 100, cellSeed(3, cellOnLine(lines[0], 0)))
			if n.phase != phaseWaiting || n.round != 1 || queriesSent(tr) != 0 {
				t.Fatalf("phase %v, round %d, %d queries: want a paused round 1", n.phase, n.round, queriesSent(tr))
			}
			tr.advance(at + cfg.SeedWait)
			if !n.seedOver || n.phase != phaseFetching || n.round != 2 || queriesSent(tr) == 0 {
				t.Fatalf("seed over %v, phase %v, round %d, %d queries: want round 2 resumed",
					n.seedOver, n.phase, n.round, queriesSent(tr))
			}
		}},
		{"completion fires OnSlotDone once", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			fired := 0
			n.OnSlotDone(func() { fired++ })
			n.HandleMessage(99, 100, seedFor(n, table, cfg, 1, 0.1))
			var cells []wire.Cell
			for li := 0; li < n.store.TrackedLines(); li++ {
				for pos := 0; pos < cfg.Blob.K; pos++ {
					cells = append(cells, wire.Cell{ID: cellOnLine(n.store.lineAt(li), pos)})
				}
			}
			for _, id := range n.samples {
				cells = append(cells, wire.Cell{ID: id})
			}
			n.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: cells})
			if n.phase != phaseDone || fired != 1 {
				t.Fatalf("phase %v, OnSlotDone fired %d times", n.phase, fired)
			}
			n.HandleMessage(5, 100, &wire.Response{Slot: 1, Cells: cells})
			n.DeliverCustody(cells)
			tr.advance(10 * time.Second)
			if n.phase != phaseDone || fired != 1 {
				t.Fatalf("after more cells and every timer: phase %v, OnSlotDone fired %d times", n.phase, fired)
			}
		}},
		{"after Stop nothing sends, rounds or arms a timer", func(t *testing.T, n *Node, table *Table, tr *captureTransport, cfg Config) {
			n.Stop()
			timers := len(tr.timers)
			l := n.store.lineAt(0)
			held := cellOnLine(l, 0)
			n.HandleMessage(99, 100, seedFor(n, table, cfg, 1, 0.3))
			n.HandleMessage(7, 50, &wire.Query{Slot: 1, Cells: []blob.CellID{held, cellOnLine(l, 1)}})
			n.HandleMessage(7, 50, &wire.Response{Slot: 1, Cells: []wire.Cell{{ID: cellOnLine(l, 2)}}})
			n.DeliverCustody([]wire.Cell{{ID: cellOnLine(l, 3)}})
			if n.phase != phaseDown || n.round != 0 || len(tr.sends) > 0 || len(tr.timers) != timers {
				t.Fatalf("phase %v, round %d, %d sends, %d new timers", n.phase, n.round, len(tr.sends), len(tr.timers)-timers)
			}
			tr.advance(10 * time.Second)
			if n.round != 0 || len(tr.sends) > 0 {
				t.Fatalf("a stale timer ran: round %d, %d sends", n.round, len(tr.sends))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, table, tr, cfg := nodeFixture(t, 60)
			n.StartSlot(1)
			if n.phase != phaseWaiting {
				t.Fatalf("StartSlot left phase %v", n.phase)
			}
			tc.run(t, n, table, tr, cfg)
		})
	}
}
