package swarm

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"pandas/internal/obsv"
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
	disc     *discovery
	host     *Host
	reg      *obsv.Registry // the host's counters, dumped to the log at drain

	ready bool // set on the event loop, where every hello after the first is built
}

// RunWorker is the entry point for a pandas-node process launched in
// swarm mode (-swarm ADDR -index I). It registers with the supervisor,
// receives its geometry and bootstrap peers, crawls the rest of the
// swarm over UDP, reports ready, then executes start frames until told to
// drain: by SIGTERM/SIGINT, or by its control connection ending, which is
// how a worker learns that its supervisor is gone. Either way it flushes a
// metrics snapshot to the log and returns nil.
func RunWorker(o WorkerOptions) error {
	w := &worker{o: o, log: o.Log}
	if w.log == nil {
		w.log = io.Discard
	}
	if n, err := strconv.Atoi(os.Getenv(EnvRestarts)); err == nil && n > 0 {
		w.restarts = n
	}

	// Bind the data socket before the first hello: the supervisor needs
	// its address to hand out as a bootstrap entry. The codec cell size
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

	w.reg = obsv.NewRegistry()
	w.reg.Counter("worker_restarts_total").Add(int64(w.restarts))

	// Register: the hello carries our socket address, the config reply
	// carries geometry, deployment shape, and bootstrap peers.
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

	ep.Run(func() {
		w.heartbeat()
		w.discover(false)
	})
	lost := make(chan error, 1)
	go func() { lost <- w.serveControl() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	// Graceful drain: flush a final metrics snapshot to the log and return
	// cleanly; the deferred closes end the loops and serveControl.
	select {
	case sig := <-sigc:
		fmt.Fprintf(w.log, "worker %d: draining on %v\n", o.Index, sig)
	case err := <-lost:
		fmt.Fprintf(w.log, "worker %d: draining, control connection ended: %v\n", o.Index, err)
	}
	_ = w.reg.Snapshot().WritePrometheus(w.log)
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
			w.mergeBootstrap(f.Config)
		case f.Start != nil:
			w.host.StartSlot(f.Start.Slot)
		}
	}
}

// mergeBootstrap adds the bootstrap entries of a config, heartbeat
// replies included. The supervisor's bindings come from the workers' own
// hellos, so they are authoritative and may rebind.
func (w *worker) mergeBootstrap(m *config) {
	for _, e := range m.Bootstrap {
		if int(e.Index) != w.o.Index && e.Addr != "" {
			_ = w.ep.AddPeer(int(e.Index), e.Addr)
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
	cfg.Metrics = w.reg

	addrs := make([]string, nNodes+1)
	if w.o.Index < len(addrs) {
		addrs[w.o.Index] = w.ep.Addr()
	}
	if err := w.ep.SetPeers(addrs); err != nil {
		return err
	}
	w.disc = newDiscovery(w.ep, w.o.Index, nNodes+1)
	w.ep.SetUnknownSender(w.disc.handleUnknown)
	w.host, err = NewHost(HostOptions{Config: cfg, Seed: m.Seed, Nodes: nNodes, Index: w.o.Index,
		Endpoint: w.ep, PreDispatch: w.disc.handle, Outcome: w.report})
	if err != nil {
		return err
	}
	w.mergeBootstrap(m)
	fmt.Fprintf(w.log, "worker %d: data %s (%d nodes + builder, restart %d)\n",
		w.o.Index, w.ep.Addr(), nNodes, w.restarts)
	return nil
}

// heartbeat runs on the event loop, so a wedged loop reads as a dead
// worker. Heartbeats double as liveness and bootstrap refresh: every reply
// is a fresh config whose entries mergeBootstrap adds. A failed write
// means the connection ended, which serveControl reports.
func (w *worker) heartbeat() {
	_ = w.sendHello()
	w.ep.After(heartbeatEvery, w.heartbeat)
}

// discover runs on the event loop every 200 ms: crawl until the table is
// complete, announce once more so everyone holds our first-hand binding
// (wasFull says the previous round already saw the full table), then
// report ready.
func (w *worker) discover(wasFull bool) {
	w.disc.round()
	if full := w.disc.converged(); !full || !wasFull {
		w.ep.After(200*time.Millisecond, func() { w.discover(full) })
		return
	}
	w.ready = true
	fmt.Printf("ready index=%d addr=%s peers=%d\n", w.o.Index, w.ep.Addr(), w.ep.Known())
	_ = w.sendHello()
}

// report is the host's outcome sink: it runs on the event loop, like
// every write to the control connection after registration.
func (w *worker) report(o Outcome) {
	m := o.Metrics
	r := &report{
		Slot:           o.Slot,
		HasSeed:        m.HasSeed,
		Consolidated:   m.Consolidated,
		Sampled:        m.Sampled,
		FirstSeedAt:    m.FirstSeedAt,
		ConsolidatedAt: m.ConsolidatedAt,
		SampledAt:      m.SampledAt,
		FetchMsgs:      m.FetchMsgsSent + m.FetchMsgsRecv,
		FetchBytes:     m.FetchBytesSent + m.FetchBytesRecv,
	}
	if s := o.Seeding; w.host.Builder != nil {
		r.SeedCells, r.FetchMsgs, r.FetchBytes = s.Cells, s.Messages, s.Bytes
		fmt.Fprintf(w.log, "worker %d: slot %d seeded %d cells in %d msgs\n",
			w.o.Index, o.Slot, s.Cells, s.Messages)
	} else {
		fmt.Fprintf(w.log, "worker %d: slot %d seed=%v cons=%v sampled=%v\n",
			w.o.Index, o.Slot, m.HasSeed, m.Consolidated, m.Sampled)
	}
	_ = w.ctrl.send(frame{Report: r})
}
