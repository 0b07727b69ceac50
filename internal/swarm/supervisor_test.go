package swarm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"pandas/internal/core"
	"pandas/internal/obsv"
)

// The supervisor's rules for frames, checked by handing events to the
// event loop directly: no processes, real loopback connections.

// expectFrame reads the worker's next frame; expectSilence and
// expectClosed say what else it may find. expectSilence comes last on a
// connection: a bufio.Scanner does not read on after a timeout.
func expectFrame(t *testing.T, c *ctrlConn) frame {
	t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := c.recv()
	if err != nil {
		t.Fatalf("expected a frame: %v", err)
	}
	return f
}

func expectSilence(t *testing.T, c *ctrlConn) {
	t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if f, err := c.recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expected nothing more, got %+v, %v", f, err)
	}
}

func expectClosed(t *testing.T, c *ctrlConn) {
	t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if f, err := c.recv(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expected a closed connection, got %+v, %v", f, err)
	}
}

func TestSupervisorFrameRules(t *testing.T) {
	s := &Supervisor{
		o:       Options{N: 4, Seed: 3, Geometry: testGeometry()}.withDefaults(),
		log:     io.Discard,
		workers: make([]*workerState, 5),
	}
	for i := range s.workers {
		s.workers[i] = &workerState{index: i, alive: true, leftAt: -1, rejoinedAt: -1}
	}
	addr := func(index int) string { return fmt.Sprintf("127.0.0.1:%d", 40000+index) }
	gotHelloFrom := func(c *ctrlConn, index int, dataAddr string) {
		s.handle(event{kind: evFrame, conn: c, frame: frame{Hello: &hello{Index: index, DataAddr: dataAddr}}})
	}
	gotHello := func(c *ctrlConn, index int) { gotHelloFrom(c, index, addr(index)) }
	gotReport := func(c *ctrlConn, slot uint64, sampling time.Duration, fetchMsgs int) {
		o := core.NewNodeOutcome()
		o.Sampling, o.FetchMsgs = sampling, fetchMsgs
		s.handle(event{kind: evFrame, conn: c, frame: frame{Report: &report{Slot: slot, Node: &o}}})
	}
	expectTable := func(c *ctrlConn, want ...string) {
		t.Helper()
		if f := expectFrame(t, c); f.Config == nil || !slices.Equal(f.Config.Peers, want) {
			t.Fatalf("expected a config with peers %q, got %+v", want, f)
		}
	}

	// A first hello registers and is answered with the deployment and the
	// table as far as it is known.
	sup1, w1 := loopbackConns(t)
	gotHello(sup1, 1)
	if f := expectFrame(t, w1); f.Config == nil || f.Config.Nodes != 4 || f.Config.Seed != 3 || f.Config.Geometry != testGeometry() ||
		!slices.Equal(f.Config.Peers, []string{"", addr(1), "", "", ""}) {
		t.Fatalf("reply to the first hello: %+v", f)
	}
	if s.workers[1].conn != sup1 {
		t.Fatal("worker 1 not registered")
	}

	// An index takes one connection at a time, and a connection one index.
	supDup, wDup := loopbackConns(t)
	gotHello(supDup, 1)
	expectClosed(t, wDup)
	gotHello(sup1, 2)
	expectClosed(t, w1) // with nothing before it: no slot is running, so no start followed the config
	if s.workers[1].conn != sup1 || s.workers[2].conn != nil {
		t.Fatal("a refused hello changed the registrations")
	}
	s.handle(event{kind: evClosed, conn: supDup, err: net.ErrClosed})
	s.handle(event{kind: evClosed, conn: sup1, err: net.ErrClosed})
	if s.workers[1].conn != nil {
		t.Fatal("worker 1 kept a closed connection")
	}

	// A report means nothing before a hello, and a dropped connection's
	// later frames are ignored.
	supEarly, wEarly := loopbackConns(t)
	gotReport(supEarly, 7, time.Second, 0)
	expectClosed(t, wEarly)
	gotHello(supEarly, 2)
	if s.workers[2].conn != nil {
		t.Fatal("a dropped connection registered")
	}

	// Every worker resolves every address in the table, so one that is
	// not a numeric ip:port does not register.
	for _, bad := range []string{"", "localhost:40002", "127.0.0.1", "127.0.0.1:x"} {
		supBad, wBad := loopbackConns(t)
		gotHelloFrom(supBad, 2, bad)
		expectClosed(t, wBad)
		if s.workers[2].conn != nil || s.workers[2].dataAddr != "" {
			t.Fatalf("registered with data address %q", bad)
		}
	}

	// The rest register; a heartbeat's reply then carries the full table.
	sups, ws := map[int]*ctrlConn{}, map[int]*ctrlConn{}
	for _, i := range []int{0, 2, 3, 4} {
		sups[i], ws[i] = loopbackConns(t)
		gotHello(sups[i], i)
		_ = expectFrame(t, ws[i])
	}
	full := []string{addr(0), addr(1), addr(2), addr(3), addr(4)}
	gotHello(sups[0], 0)
	expectTable(ws[0], full...)

	// The address a connection registered with is the one it keeps.
	gotHelloFrom(sups[2], 2, "127.0.0.1:50002")
	expectClosed(t, ws[2])
	s.handle(event{kind: evClosed, conn: sups[2], err: net.ErrClosed})
	if s.workers[2].dataAddr != addr(2) {
		t.Fatalf("a refused hello moved worker 2 to %q", s.workers[2].dataAddr)
	}

	// Slot 7 is running and worker 1's process died in it. Its successor's
	// first hello is answered with the config and the slot's start, later
	// hellos with the config alone; its new address goes to every connected
	// worker at once.
	s.slot, s.slotStart = 7, time.Now().Add(-time.Second)
	s.workers[1].leftAt = 200 * time.Millisecond
	supNew, wNew := loopbackConns(t)
	gotHelloFrom(supNew, 1, "127.0.0.1:50001")
	moved := []string{addr(0), "127.0.0.1:50001", addr(2), addr(3), addr(4)}
	expectTable(wNew, moved...)
	if f := expectFrame(t, wNew); f.Start == nil || f.Start.Slot != 7 {
		t.Fatalf("second frame to the successor: %+v", f)
	}
	for _, i := range []int{0, 3, 4} {
		expectTable(ws[i], moved...)
	}
	if at := s.workers[1].rejoinedAt; at < time.Second {
		t.Fatalf("rejoinedAt = %v", at)
	}
	rejoinedAt := s.workers[1].rejoinedAt
	gotHelloFrom(supNew, 1, "127.0.0.1:50001")
	expectTable(wNew, moved...)
	expectSilence(t, wNew)
	for _, i := range []int{0, 3, 4} {
		expectSilence(t, ws[i]) // a heartbeat is answered to its sender alone
	}
	if s.workers[1].rejoinedAt != rejoinedAt {
		t.Fatal("a heartbeat moved the rejoin time")
	}

	// Reports: only the running slot's, and an incomplete one never
	// replaces a complete one.
	gotReport(supNew, 6, time.Second, 0)
	if s.workers[1].report != nil {
		t.Fatal("kept a report for a slot already harvested")
	}
	gotReport(supNew, 7, -1, 0)
	gotReport(supNew, 7, time.Second, 9)
	gotReport(supNew, 7, -1, 0)
	if r := s.workers[1].report; r == nil || r.Node.Sampling != time.Second || r.Node.FetchMsgs != 9 {
		t.Fatalf("kept report %+v", r)
	}
}

// TestHarvestKeepsTheNodeRecord: a node's report crosses the control
// connection and the harvest whole — its rounds (Table 1) and rejects
// included — and the supervisor adds only what it saw: a rejoin, a death,
// the builder's seeding.
func TestHarvestKeepsTheNodeRecord(t *testing.T) {
	s := &Supervisor{
		o:       Options{N: 2, Seed: 3, Geometry: testGeometry()}.withDefaults(),
		log:     io.Discard,
		workers: make([]*workerState, 3),
		slot:    4,
	}
	for i := range s.workers {
		s.workers[i] = &workerState{index: i, alive: true, leftAt: -1, rejoinedAt: -1}
	}
	rx, tx := loopbackConns(t)
	harvest := func(w int, r *report) {
		t.Helper()
		if err := tx.send(frame{Report: r}); err != nil {
			t.Fatal(err)
		}
		f, err := rx.recv()
		if err != nil {
			t.Fatal(err)
		}
		s.handleReport(s.workers[w], f.Report)
	}
	node := core.NewNodeOutcome()
	node.Seed, node.Consolidation, node.Sampling, node.ConsFromSeed = 100*time.Millisecond, 700*time.Millisecond, 900*time.Millisecond, 600*time.Millisecond
	node.FetchMsgs, node.FetchBytes, node.CorruptRejects = 12, 4_000, 7
	node.Rounds = []obsv.RoundStat{{MsgsSent: 6, CellsRequested: 20, RepliesInRound: 5, CellsInRound: 18, CoverageAfter: 0.9}}
	harvest(0, &report{Slot: 4, Node: &node})
	harvest(2, &report{Slot: 4, Seeding: &core.SeedingReport{Messages: 40, Cells: 64, Bytes: 36_000}})
	s.workers[0].rejoinedAt = 300 * time.Millisecond
	s.workers[1].gone = true

	sr := s.finalizeSlot(4)
	want := node
	want.JoinedAt = 300 * time.Millisecond
	if got := sr.Outcomes[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("harvested %+v, want %+v", got, want)
	}
	if got := sr.Outcomes[1]; !got.Dead || got.Sampling >= 0 {
		t.Fatalf("a gone worker was harvested as %+v", got)
	}
	if sr.Reports != 1 || sr.Rejoined != 1 || sr.Seeding.Cells != 64 || sr.Seeding.Bytes != 36_000 {
		t.Fatalf("slot result %+v", sr)
	}
}
