package swarm

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"syscall"
	"time"

	"pandas/internal/transport"
)

// WorkerOptions configures one swarm worker process.
type WorkerOptions struct {
	Supervisor string    // supervisor control address (host:port)
	Index      int       // this worker's index; N (the highest) is the builder
	Log        io.Writer // diagnostics; nil discards
}

// worker is the running state of one swarm participant.
type worker struct {
	o        WorkerOptions
	restarts int // times the supervisor has restarted this index (EnvRestarts)
	log      io.Writer
	ctrl     *ctrlConn // written from the event loop only once it runs
	ep       *transport.UDP
	host     *Host

	// Set on the event loop, where every hello after the first is built.
	peers []string // the table installed in ep
	ready bool
}

// RunWorker is the entry point for a pandas-node process launched in
// swarm mode (-swarm ADDR -index I). It registers with the supervisor,
// receives its geometry and the peer table, installs every later table the
// supervisor sends, reports ready once the table is full, and executes
// start frames until told to drain: by SIGTERM/SIGINT, or by its control
// connection ending, which is how a worker learns that its supervisor is
// gone. Either way it returns nil.
func RunWorker(o WorkerOptions) error {
	w := &worker{o: o, log: o.Log}
	if w.log == nil {
		w.log = io.Discard
	}
	if n, err := strconv.Atoi(os.Getenv(EnvRestarts)); err == nil && n > 0 {
		w.restarts = n
	}

	// Bind the data socket before the first hello: the supervisor hands
	// its address to every other worker. The codec cell size
	// is fixed later, when the geometry arrives.
	ep, err := transport.NewUDP(o.Index, "127.0.0.1:0", 0)
	if err != nil {
		return err
	}
	defer ep.Close()
	w.ep = ep

	conn, err := net.Dial("tcp", o.Supervisor)
	if err != nil {
		return fmt.Errorf("swarm: worker %d: dial supervisor: %w", o.Index, err)
	}
	defer conn.Close()
	w.ctrl = newCtrlConn(conn)

	// Register: the hello carries our socket address, the config reply
	// carries geometry, deployment shape, and the peer table.
	if err := w.sendHello(); err != nil {
		return fmt.Errorf("swarm: worker %d: registration: %w", o.Index, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(registerTimeout))
	f, err := w.ctrl.recv()
	if err == nil && f.Config == nil {
		err = errBadFrame
	}
	if err != nil {
		return fmt.Errorf("swarm: worker %d: registration: %w", o.Index, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if err := w.init(f.Config); err != nil {
		return err
	}

	ep.Run(w.heartbeat)
	lost := make(chan error, 1)
	go func() { lost <- w.serveControl() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	// Graceful drain: return cleanly; the deferred closes end the loops
	// and serveControl.
	select {
	case sig := <-sigc:
		fmt.Fprintf(w.log, "worker %d: draining on %v\n", o.Index, sig)
	case err := <-lost:
		fmt.Fprintf(w.log, "worker %d: draining, control connection ended: %v\n", o.Index, err)
	}
	return nil
}

// serveControl reads the supervisor's frames until the connection ends
// and returns why it did.
func (w *worker) serveControl() error {
	for {
		f, err := w.ctrl.recv()
		switch {
		case err != nil:
			return err
		case f.Config != nil:
			peers := f.Config.Peers
			w.ep.Run(func() { w.setPeers(peers) })
		case f.Start != nil:
			w.host.StartSlot(f.Start.Slot)
		}
	}
}

func (w *worker) sendHello() error {
	return w.ctrl.send(frame{Hello: &hello{
		Index:    w.o.Index,
		Ready:    w.ready,
		DataAddr: w.ep.Addr(),
	}})
}

// init expands the config into a running protocol participant.
func (w *worker) init(m *config) error {
	nNodes := m.Nodes
	cfg, err := m.Geometry.CoreConfig()
	if err != nil {
		return fmt.Errorf("swarm: worker %d: bad geometry: %w", w.o.Index, err)
	}

	if len(m.Peers) != nNodes+1 {
		return fmt.Errorf("swarm: worker %d: config lists %d peers for %d nodes + builder", w.o.Index, len(m.Peers), nNodes)
	}
	w.host, err = NewHost(HostOptions{Config: cfg, Seed: m.Seed, Nodes: nNodes, Index: w.o.Index,
		Endpoint: w.ep, Outcome: w.report})
	if err != nil {
		return err
	}
	fmt.Fprintf(w.log, "worker %d: data %s (%d nodes + builder, restart %d)\n",
		w.o.Index, w.ep.Addr(), nNodes, w.restarts)
	w.ep.Run(func() { w.setPeers(m.Peers) })
	return nil
}

// setPeers installs a table from the supervisor, which learned every
// address from its worker's own registration, and says ready the first
// time the table is full. It runs on the event loop.
func (w *worker) setPeers(peers []string) {
	if slices.Equal(peers, w.peers) {
		return
	}
	if err := w.ep.SetPeers(peers); err != nil {
		fmt.Fprintf(w.log, "worker %d: peer table: %v\n", w.o.Index, err)
		return
	}
	w.peers = peers
	if !w.ready && !slices.Contains(peers, "") {
		w.ready = true
		fmt.Printf("ready index=%d addr=%s peers=%d\n", w.o.Index, w.ep.Addr(), len(peers))
		_ = w.sendHello()
	}
}

// heartbeat runs on the event loop, so a wedged loop reads as a dead
// worker. Heartbeats double as liveness and peer-table refresh: every
// reply is a fresh config whose table setPeers installs. A failed write
// means the connection ended, which serveControl reports.
func (w *worker) heartbeat() {
	_ = w.sendHello()
	w.ep.After(heartbeatEvery, w.heartbeat)
}

// report is the host's outcome sink: it runs on the event loop, like
// every write to the control connection after registration.
func (w *worker) report(o Outcome) {
	r := &report{Slot: o.Slot}
	if w.host.Builder != nil {
		r.Seeding = &o.Seeding
		fmt.Fprintf(w.log, "worker %d: slot %d seeded %d cells in %d msgs\n",
			w.o.Index, o.Slot, o.Seeding.Cells, o.Seeding.Messages)
	} else {
		r.Node = &o.Node
		fmt.Fprintf(w.log, "worker %d: slot %d seed=%v cons=%v sampled=%v\n",
			w.o.Index, o.Slot, o.Node.Seed >= 0, o.Node.Consolidation >= 0, o.Node.Sampling >= 0)
	}
	_ = w.ctrl.send(frame{Report: r})
}
