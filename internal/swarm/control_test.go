package swarm

import (
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pandas/internal/core"
	"pandas/internal/obsv"
)

// loopbackConns returns the supervisor's end of a new control connection,
// as its accept loop would build it, and the worker's end. (Not a
// net.Pipe: the supervisor writes replies nobody may be reading yet.)
func loopbackConns(t *testing.T) (sup, worker *ctrlConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialled.Close(); accepted.Close() })
	return newCtrlConn(accepted), newCtrlConn(dialled)
}

// TestFrameRoundTrip sends each of the four frames over a connection and
// expects the same frame, and only that frame, on the other side, in
// order.
func TestFrameRoundTrip(t *testing.T) {
	node := core.NodeOutcome{Seed: 120 * time.Millisecond, Consolidation: 900 * time.Millisecond,
		Sampling: 1400 * time.Millisecond, BlockRecv: -1, ConsFromSeed: 780 * time.Millisecond,
		JoinedAt: -1, LeftAt: -1, FetchMsgs: 31, FetchBytes: 18_000, CorruptRejects: 3,
		Rounds: []obsv.RoundStat{
			{MsgsSent: 4, CellsRequested: 12, RepliesInRound: 3, CellsInRound: 9, Duplicates: 1, CoverageAfter: 2.0 / 3},
			{MsgsSent: 1, CellsRequested: 3, RepliesAfterRound: 1, CellsAfterRound: 3, Reconstructed: 2, CoverageAfter: 1},
		}}
	silent := core.NewNodeOutcome()
	frames := []frame{
		{Hello: &hello{Index: 5, Ready: true, DataAddr: "127.0.0.1:40001"}},
		{Config: &config{Nodes: 64, Seed: -42,
			Geometry: Geometry{K: 16, Custody: 2, Samples: 73},
			Peers:    []string{"127.0.0.1:40010", "", "127.0.0.1:40011"}}},
		{Start: &start{Slot: 1<<63 + 2}},
		{Report: &report{Slot: 2, Node: &node}},
		{Report: &report{Slot: 2, Seeding: &core.SeedingReport{Policy: core.PolicyRedundant,
			Messages: 40, Cells: 64, Bytes: 36_000, NodesSeeded: 8}}},
		{Report: &report{Slot: 3, Node: &silent}}, // a node that saw nothing
	}
	rx, tx := loopbackConns(t)
	go func() {
		for _, f := range frames {
			if err := tx.send(f); err != nil {
				t.Error(err)
			}
		}
		tx.conn.Close()
	}()
	for i, want := range frames {
		got, err := rx.recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := rx.recv(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestRecvRejectsMalformedLines feeds a reader what a stranger might
// write: every line that is not exactly one frame is an error, and an
// overlong line is refused without being held.
func TestRecvRejectsMalformedLines(t *testing.T) {
	for name, line := range map[string]string{
		"garbage":      "GET / HTTP/1.1",
		"empty object": "{}",
		"empty line":   "",
		"two frames":   `{"hello":{"Index":1},"start":{"Slot":2}}`,
		"wrong type":   `{"start":{"Slot":"two"}}`,
		"oversized":    `{"hello":{"DataAddr":"` + strings.Repeat("x", maxFrameBytes) + `"}}`,
	} {
		rx, tx := loopbackConns(t)
		go func() {
			_, _ = io.WriteString(tx.conn, line+"\n") // cut short when the reader gives up
			tx.conn.Close()
		}()
		if _, err := rx.recv(); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: err = %v, want errBadFrame", name, err)
		}
		rx.conn.Close()
	}
}
