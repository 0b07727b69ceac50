package core

import (
	"math/rand"
	"slices"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/wire"
)

// referencePendingOut is the map-of-slices reply buffer the flat owed
// list replaced: one slice per recipient, appended to as cells land, and
// flushed recipient by recipient in ascending order. It is kept as the
// differential oracle of Node.flush.
type referencePendingOut map[int][]wire.Cell

func (r referencePendingOut) owe(to int, c wire.Cell) { r[to] = append(r[to], c) }

func (r referencePendingOut) flush(send func(to int, cells []wire.Cell)) {
	recipients := make([]int, 0, len(r))
	for to := range r {
		recipients = append(recipients, to)
	}
	slices.Sort(recipients)
	for _, to := range recipients {
		send(to, r[to])
	}
	clear(r)
}

// sentReply is one Response a node sent: its recipient and cell IDs.
type sentReply struct {
	to    int
	cells []blob.CellID
}

// repliesIn lists the Responses among sends, in send order.
func repliesIn(sends []capturedSend) []sentReply {
	var out []sentReply
	for _, s := range sends {
		if r, ok := s.payload.(*wire.Response); ok {
			ids := make([]blob.CellID, len(r.Cells))
			for i, c := range r.Cells {
				ids[i] = c.ID
			}
			out = append(out, sentReply{to: s.to, cells: ids})
		}
	}
	return out
}

// TestFlushMatchesReference drives a node with random buffered asks and
// random landings (replies and the reconstructions they trigger), and
// requires each flush to send the identical sequence of (recipient, cell
// IDs) replies that the map-of-slices buffer sends for the same landings.
// It also checks the owed list against the asks themselves: every peer
// whose ask for a cell was buffered is owed that cell once it lands.
func TestFlushMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		node, table, tr, cfg := nodeFixture(t, 60)
		rng := rand.New(rand.NewSource(seed))
		node.StartSlot(1)
		var custody []blob.CellID
		for _, l := range table.Assignment(0).Lines() {
			custody = append(custody, l.Cells(cfg.Blob.N())...)
		}
		// asked[id] holds the peers whose ask for id was buffered.
		asked := map[blob.CellID]map[int]bool{}
		flushes := 0 // flushes that sent more than one reply
		for step := 0; step < 12; step++ {
			for q := rng.Intn(6); q > 0; q-- {
				peer := 1 + rng.Intn(59)
				var ask []blob.CellID
				for c := 1 + rng.Intn(20); c > 0; c-- {
					id := custody[rng.Intn(len(custody))]
					ask = append(ask, id)
					if !node.Store().Has(id) {
						if asked[id] == nil {
							asked[id] = map[int]bool{}
						}
						asked[id][peer] = true
					}
				}
				node.HandleMessage(peer, 50, &wire.Query{Slot: 1, Cells: ask})
			}
			var land []wire.Cell
			for c := rng.Intn(cfg.Blob.N() / 2); c > 0; c-- {
				land = append(land, wire.Cell{ID: custody[rng.Intn(len(custody))]})
			}
			node.HandleMessage(1+rng.Intn(59), 50, &wire.Response{Slot: 1, Cells: land})

			owed := slices.Clone(node.pendingOut)
			want := map[owedCell]bool{}
			for id, peers := range asked {
				if node.Store().Has(id) {
					for peer := range peers {
						want[owedCell{to: int32(peer), id: id}] = true
					}
					delete(asked, id)
				}
			}
			if len(owed) != len(want) {
				t.Fatalf("seed %d step %d: %d replies owed, want %d", seed, step, len(owed), len(want))
			}
			ref := referencePendingOut{}
			for _, o := range owed {
				if !want[o] {
					t.Fatalf("seed %d step %d: owes %v, which no buffered ask asked for", seed, step, o)
				}
				c, _ := node.Store().Peek(o.id)
				ref.owe(int(o.to), c)
			}
			refTr := &captureTransport{now: tr.now}
			node.tr = refTr
			ref.flush(node.sendCells)
			node.tr = tr

			mark := len(tr.sends)
			tr.advance(tr.now + flushDelay)
			got, wantReplies := repliesIn(tr.sends[mark:]), repliesIn(refTr.sends)
			if !slices.EqualFunc(got, wantReplies, func(a, b sentReply) bool {
				return a.to == b.to && slices.Equal(a.cells, b.cells)
			}) {
				t.Fatalf("seed %d step %d: flush sent %v, reference %v", seed, step, got, wantReplies)
			}
			if len(node.pendingOut) != 0 {
				t.Fatalf("seed %d step %d: %d replies still owed after the flush", seed, step, len(node.pendingOut))
			}
			if len(wantReplies) > 1 {
				flushes++
			}
		}
		if flushes == 0 {
			t.Fatalf("seed %d: no flush sent more than one reply", seed)
		}
	}
}

// TestFlushAfterRestartSendsNothing: a node restarted between a buffered
// ask's landing and the flush owes nothing any more — its new lifetime
// neither runs the old flush nor carries the old list — and a landing
// after the restart arms a flush of its own.
func TestFlushAfterRestartSendsNothing(t *testing.T) {
	node, table, tr, _ := nodeFixture(t, 60)
	node.StartSlot(1)
	l := table.Assignment(0).Lines()[0]
	before, after := cellOnLine(l, 3), cellOnLine(l, 4)
	node.HandleMessage(7, 50, &wire.Query{Slot: 1, Cells: []blob.CellID{before}})
	node.HandleMessage(9, 100, &wire.Response{Slot: 1, Cells: []wire.Cell{{ID: before}}})
	if len(node.pendingOut) != 1 {
		t.Fatalf("%d replies owed, want 1", len(node.pendingOut))
	}
	node.Stop()
	node.JoinSlot(1)
	mark := len(tr.sends)
	tr.advance(tr.now + 2*flushDelay)
	if r := repliesIn(tr.sends[mark:]); len(r) != 0 {
		t.Fatalf("the restarted node sent %v", r)
	}

	node.HandleMessage(8, 50, &wire.Query{Slot: 1, Cells: []blob.CellID{after}})
	node.HandleMessage(9, 100, &wire.Response{Slot: 1, Cells: []wire.Cell{{ID: after}}})
	mark = len(tr.sends)
	tr.advance(tr.now + flushDelay)
	r := repliesIn(tr.sends[mark:])
	if len(r) != 1 || r[0].to != 8 || !slices.Equal(r[0].cells, []blob.CellID{after}) {
		t.Fatalf("after the restart the flush sent %v, want one reply of %v to 8", r, after)
	}
}
