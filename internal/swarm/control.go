package swarm

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"pandas/internal/core"
)

// The control channel is one loopback TCP connection per worker process,
// dialled by the worker, carrying newline-delimited JSON frames. The
// stream supplies delivery, ordering and "the peer is gone" (EOF), so the
// protocol has no acknowledgements, sequence numbers or retries of its
// own: a frame written is a frame the other side reads, once, in order,
// or the connection ends.

// frame is one line of the stream. Exactly one field is set.
type frame struct {
	Hello  *hello  `json:"hello,omitempty"`
	Config *config `json:"config,omitempty"`
	Start  *start  `json:"start,omitempty"`
	Report *report `json:"report,omitempty"`
}

// hello is the only frame a worker originates unprompted. The first one
// on a connection registers the worker; it is then repeated every
// heartbeatEvery from the worker's event loop, so a wedged loop reads as
// a dead worker. The supervisor answers every hello with a config.
type hello struct {
	Index    int
	Ready    bool   // the worker's host runs and its peer table is full
	DataAddr string // the worker's bound transport.UDP address
}

// config is the supervisor's reply to a hello: everything a worker needs
// to take part, including the whole peer table. Replies to heartbeats
// carry it again as more workers register; a successor's registration
// sends it to every connected worker at once.
type config struct {
	Nodes    int // protocol nodes; the builder is index Nodes
	Seed     int64
	Geometry Geometry
	// Peers is every worker's data address in index order, as registered
	// in its hello; "" for a worker that has not registered yet.
	Peers []string
}

// start opens a slot on a worker: a node starts it, the builder seeds it.
type start struct {
	Slot uint64
}

// report is one worker's outcome for one slot: a node's record (times
// from the worker's own slot start) or the builder's seeding counts.
type report struct {
	Slot    uint64
	Node    *core.NodeOutcome   `json:",omitempty"`
	Seeding *core.SeedingReport `json:",omitempty"`
}

const (
	// heartbeatEvery is the worker's hello period.
	heartbeatEvery = 500 * time.Millisecond
	// maxFrameBytes bounds one line. The largest frames are a node report,
	// about 170 bytes per round for up to fetch.DefaultMaxRounds (50)
	// rounds, and a config, about 18 bytes per peer (1.3 KB at 64 nodes);
	// the bound is what a misbehaving peer can make a reader hold.
	maxFrameBytes = 1 << 20
	// writeTimeout bounds one frame write, so a peer that stopped reading
	// cannot stall the writer's event loop.
	writeTimeout = 2 * time.Second
	// registerTimeout bounds a worker's wait for its first config.
	registerTimeout = 10 * time.Second
)

var errBadFrame = errors.New("swarm: malformed control frame")

// ctrlConn is one end of a control connection. send and recv may run on
// different goroutines; neither may be called from two at once.
type ctrlConn struct {
	conn  net.Conn
	lines *bufio.Scanner

	// Supervisor event loop only: index is the worker this connection
	// registered as (-1 before its first hello); dropped says the loop
	// closed it for breaking the protocol, so whatever its reader had
	// already forwarded is ignored.
	index   int
	dropped bool
}

func newCtrlConn(conn net.Conn) *ctrlConn {
	lines := bufio.NewScanner(conn)
	lines.Buffer(make([]byte, 0, 4096), maxFrameBytes)
	return &ctrlConn{conn: conn, lines: lines, index: -1}
}

// send writes one frame.
func (c *ctrlConn) send(f frame) error {
	line, err := json.Marshal(f)
	if err != nil {
		return err
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout)) // fails only on a closed connection, as Write then does
	_, err = c.conn.Write(append(line, '\n'))
	return err
}

// recv reads the next frame. It returns the stream's error (io.EOF when
// the peer closed) or errBadFrame for a line that is longer than
// maxFrameBytes or not exactly one frame; the caller closes the
// connection on any of them.
func (c *ctrlConn) recv() (frame, error) {
	var f frame
	if !c.lines.Scan() {
		switch err := c.lines.Err(); err {
		case nil:
			return f, io.EOF
		case bufio.ErrTooLong:
			return f, fmt.Errorf("%w: line over %d bytes", errBadFrame, maxFrameBytes)
		default:
			return f, err
		}
	}
	if err := json.Unmarshal(c.lines.Bytes(), &f); err != nil {
		return f, fmt.Errorf("%w: %v", errBadFrame, err)
	}
	set := 0
	for _, present := range []bool{f.Hello != nil, f.Config != nil, f.Start != nil, f.Report != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return f, errBadFrame
	}
	return f, nil
}
