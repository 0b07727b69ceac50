package swarm

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
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
	gotHello := func(c *ctrlConn, index int) {
		s.handle(event{kind: evFrame, conn: c, frame: frame{Hello: &hello{Index: index, DataAddr: "127.0.0.1:1"}}})
	}
	gotReport := func(c *ctrlConn, r report) {
		s.handle(event{kind: evFrame, conn: c, frame: frame{Report: &r}})
	}

	// A first hello registers and is answered with the deployment.
	sup1, w1 := loopbackConns(t)
	gotHello(sup1, 1)
	if f := expectFrame(t, w1); f.Config == nil || f.Config.Nodes != 4 || f.Config.Seed != 3 || f.Config.Geometry != testGeometry() {
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
	gotReport(supEarly, report{Slot: 7, Sampled: true})
	expectClosed(t, wEarly)
	gotHello(supEarly, 2)
	if s.workers[2].conn != nil {
		t.Fatal("a dropped connection registered")
	}

	// Slot 7 is running and worker 1's process died in it. Its successor's
	// first hello is answered with the config and the slot's start, later
	// hellos with the config alone.
	s.slot, s.slotStart = 7, time.Now().Add(-time.Second)
	s.workers[1].leftAt = 200 * time.Millisecond
	supNew, wNew := loopbackConns(t)
	gotHello(supNew, 1)
	if f := expectFrame(t, wNew); f.Config == nil {
		t.Fatalf("first frame to the successor: %+v", f)
	}
	if f := expectFrame(t, wNew); f.Start == nil || f.Start.Slot != 7 {
		t.Fatalf("second frame to the successor: %+v", f)
	}
	if at := s.workers[1].rejoinedAt; at < time.Second {
		t.Fatalf("rejoinedAt = %v", at)
	}
	rejoinedAt := s.workers[1].rejoinedAt
	gotHello(supNew, 1)
	if f := expectFrame(t, wNew); f.Config == nil {
		t.Fatalf("reply to a heartbeat: %+v", f)
	}
	expectSilence(t, wNew)
	if s.workers[1].rejoinedAt != rejoinedAt {
		t.Fatal("a heartbeat moved the rejoin time")
	}

	// Reports: only the running slot's, and an incomplete one never
	// replaces a complete one.
	gotReport(supNew, report{Slot: 6, Sampled: true})
	if s.workers[1].report != nil {
		t.Fatal("kept a report for a slot already harvested")
	}
	gotReport(supNew, report{Slot: 7})
	gotReport(supNew, report{Slot: 7, Sampled: true, FetchMsgs: 9})
	gotReport(supNew, report{Slot: 7})
	if r := s.workers[1].report; r == nil || !r.Sampled || r.FetchMsgs != 9 {
		t.Fatalf("kept report %+v", r)
	}
}
