package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"pandas/internal/wire"
)

// TestRecycledMessagesMatchFresh runs TestPlanGolden's three regimes, and
// a real-payload cluster with a fifth of its nodes dead at 3 % loss, twice:
// once with the cluster's message free list, whose release overwrites
// every cell ID and the slot of a handled message with sentinels, and once
// with no list anywhere, so every message is fresh as it is on sockets.
// A node that read a message after its handler returned, or a release
// that came before the handler, would read sentinels or another message's
// cells in the first run only; every outcome and every metrics view must
// come out the same in both. Two mutants fail it: dispatch releasing
// before HandleMessage, and onQuery buffering its asks from a timer that
// reads the query's Cells after the handler returned.
func TestRecycledMessagesMatchFresh(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		real   bool
		mutate func(*ClusterConfig)
	}{
		{"dense", 1300, false, nil},
		{"sparse-dead-liveness", 150, false, sparseDeadLiveness},
		{"garbage-peers", 100, true, garbagePeers},
		{"real-dead-loss", 120, true, func(cc *ClusterConfig) {
			cc.Core.RealPayloads = true
			cc.DeadFraction, cc.LossRate = 0.2, 0.03
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.n > 1000 {
				t.Skip("dense regime skipped in -short mode")
			}
			recycled := goldenCluster(t, tc.n, tc.real, tc.mutate)
			fresh := goldenCluster(t, tc.n, tc.real, tc.mutate)
			fresh.msgs = nil
			for _, n := range fresh.nodes {
				n.msgs = nil
			}
			got, want := slotsDigest(t, recycled, 2), slotsDigest(t, fresh, 2)
			if got != want {
				t.Fatalf("recycled messages changed the run: digest %s, fresh %s", got, want)
			}
			if held, _ := recycled.msgs.census(); held == 0 {
				t.Fatal("the free list took back no message")
			}
		})
	}
}

// slotsDigest runs slots and digests every node's outcome and metrics view
// and each slot's seeding report, loss and churn counts.
func slotsDigest(t *testing.T, c *Cluster, slots int) string {
	t.Helper()
	h := sha256.New()
	for s := 1; s <= slots; s++ {
		res, err := c.RunSlot(uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d %+v %d %+v\n", s, res.Seeding, res.Dropped, res.Churn)
		for i, n := range c.Nodes() {
			fmt.Fprintf(h, "%d/%d %+v %+v\n", s, i, res.Outcomes[i], n.Metrics())
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// census counts the messages the list holds, and reports whether one
// of them is held twice.
func (p *msgPool) census() (held int, twice bool) {
	seen := map[any]bool{}
	for k := range p.queries {
		for _, m := range p.queries[k] {
			twice = twice || seen[m]
			seen[m] = true
		}
		for _, m := range p.responses[k] {
			twice = twice || seen[m]
			seen[m] = true
		}
	}
	return len(seen), twice
}

// parentSlotBytes is what slot 2 of a 300-node metadata smallCluster
// allocated before the simulator recycled fetch messages, every query
// and reply allocated afresh (measured at seed 42 after a warm-up slot).
const parentSlotBytes = 3_029_200

// TestSimulatedSlotRecyclesMessages: once a warm-up slot has filled the
// free list, a 300-node metadata slot allocates at most a fifth of what it
// allocated with a fresh message per send, and the list holds no more
// messages than the slot sent, none of them twice.
func TestSimulatedSlotRecyclesMessages(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; allocation counts do not apply")
	}
	c := smallCluster(t, 300, nil)
	if _, err := c.RunSlot(1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.RunSlot(2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	sent := 0
	for _, n := range c.Nodes() {
		sent += n.Metrics().FetchMsgsSent
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > parentSlotBytes/5 {
		t.Errorf("slot 2 allocated %d B, want at most %d (a fifth of %d)", got, parentSlotBytes/5, parentSlotBytes)
	}
	held, twice := c.msgs.census()
	if held > sent || twice {
		t.Errorf("the free list holds %d messages (one of them twice: %v) after a slot that sent %d", held, twice, sent)
	}
}

// TestMsgPoolStacks: a message is taken at exactly the size asked for and
// comes back empty from the stack of its capacity, whoever built it; a
// response comes back with its payloads dropped.
func TestMsgPoolStacks(t *testing.T) {
	p := &msgPool{}
	for n := 1; n <= wire.MaxCellsPerMessage; n++ {
		q, r := p.query(3, n), p.response(3, n)
		if cap(q.Cells) != n || cap(r.Cells) != n || q.Slot != 3 || r.Slot != 3 {
			t.Fatalf("for %d cells: capacities %d/%d, slots %d/%d", n, cap(q.Cells), cap(r.Cells), q.Slot, r.Slot)
		}
		r.Cells = append(r.Cells, wire.Cell{Data: []byte{1}})
		p.release(q)
		p.release(r)
		if again := p.query(4, n); again != q || len(again.Cells) != 0 || again.Slot != 4 {
			t.Fatalf("query for %d cells was not reused empty", n)
		}
		again := p.response(4, n)
		if c := again.Cells[:1][0]; again != r || len(again.Cells) != 0 || c.Data != nil || c.ID != poisonID {
			t.Fatalf("response for %d cells was not reused empty and poisoned", n)
		}
	}
	// A garbage peer's copy is sized by its cells; one larger than a
	// datagram serves a full one.
	five, wide := &wire.Response{Cells: make([]wire.Cell, 5)}, &wire.Response{Cells: make([]wire.Cell, 150)}
	p.release(five)
	p.release(wide)
	if p.response(1, 4) == five || p.response(1, 5) != five || p.response(1, wire.MaxCellsPerMessage) != wide {
		t.Fatal("a released response did not go back to the stack of its capacity")
	}
	p.release(&wire.Query{})
	if held, _ := p.census(); held != 0 {
		t.Fatalf("a query with no capacity was kept: %d held", held)
	}
}
