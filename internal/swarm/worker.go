package swarm

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"pandas/internal/obsv"
	"pandas/internal/transport"
	"pandas/internal/wire"
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
	ctrl     *controlClient
	ep       *transport.UDP
	disc     *discovery
	host     *Host
	reg      *obsv.Registry

	metricsAddr string

	curSlot atomic.Uint64 // latest slot started (0 = none)
	ready   bool          // set on the event loop, where every Hello after the first is built

	starts chan uint64
}

// RunWorker is the entry point for a pandas-node process launched in
// swarm mode (-swarm ADDR -index I). It registers with the supervisor,
// receives its geometry and bootstrap peers, crawls the rest of the
// swarm over UDP, reports ready, then executes Start commands until
// told to drain (SIGTERM/SIGINT) or the supervisor disappears.
func RunWorker(o WorkerOptions) error {
	w := &worker{
		o:      o,
		log:    o.Log,
		starts: make(chan uint64, 64),
	}
	if w.log == nil {
		w.log = io.Discard
	}
	if n, err := strconv.Atoi(os.Getenv(EnvRestarts)); err == nil && n > 0 {
		w.restarts = n
	}

	// Bind the data socket before the first Hello: the supervisor needs
	// its address to hand out as a bootstrap entry. The codec cell size
	// is fixed later, when the geometry arrives.
	ep, err := transport.NewUDP(o.Index, "127.0.0.1:0", 0)
	if err != nil {
		return err
	}
	defer ep.Close()
	w.ep = ep

	ctrl, err := newControlClient(o.Supervisor, w.onStart, w.onConfig)
	if err != nil {
		return err
	}
	defer ctrl.Close()
	w.ctrl = ctrl

	// Per-worker metrics endpoint, scraped by the supervisor at harvest.
	w.reg = obsv.NewRegistry()
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer mln.Close()
	w.metricsAddr = mln.Addr().String()
	mux := http.NewServeMux()
	mux.Handle("/metrics", w.reg)
	go func() { _ = http.Serve(mln, mux) }()
	w.reg.Counter("worker_restarts_total").Add(int64(w.restarts))

	// Register: Hello carries our socket addresses, the WorkerConfig
	// reply carries geometry, deployment shape, and bootstrap peers.
	cfgMsg, err := ctrl.hello(w.helloMsg())
	if err != nil {
		return fmt.Errorf("swarm: worker %d: registration: %w", o.Index, err)
	}
	if err := w.init(cfgMsg); err != nil {
		return err
	}

	ep.Run(func() {
		w.heartbeat()
		w.discover(false)
	})

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	for {
		select {
		case sig := <-sigc:
			// Graceful drain: close sockets (deferred above, which also
			// ends the loops), flush a final metrics snapshot to the log,
			// exit cleanly.
			fmt.Fprintf(w.log, "worker %d: draining on %v\n", o.Index, sig)
			_ = w.reg.Snapshot().WritePrometheus(w.log)
			return nil
		case s := <-w.starts:
			w.curSlot.Store(s)
			w.host.StartSlot(s) // duplicates (control-plane retries) are ignored
		}
	}
}

// onStart runs on the control read loop: queue the slot for the main
// loop.
func (w *worker) onStart(slot uint64) {
	select {
	case w.starts <- slot:
	default:
	}
}

// onConfig runs on the control read loop for every WorkerConfig,
// including heartbeat replies: merge any bootstrap entries we lack. The
// supervisor's bindings come from the workers' own Hellos, so they are
// authoritative and may rebind.
func (w *worker) onConfig(m *wire.WorkerConfig) {
	for _, e := range m.Bootstrap {
		if int(e.Index) != w.o.Index && e.Addr != "" {
			_ = w.ep.AddPeer(int(e.Index), e.Addr)
		}
	}
}

func (w *worker) helloMsg() *wire.Hello {
	return &wire.Hello{
		Slot:        w.curSlot.Load(),
		Index:       uint32(w.o.Index),
		Ready:       w.ready,
		Known:       uint32(w.ep.Known()),
		DataAddr:    w.ep.Addr(),
		MetricsAddr: w.metricsAddr,
	}
}

// init expands the WorkerConfig into a running protocol participant.
func (w *worker) init(m *wire.WorkerConfig) error {
	nNodes := int(m.NumNodes)
	cfg, err := geometryFromWire(m).CoreConfig()
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
	w.onConfig(m) // entries merged before SetPeers above were replaced by it
	fmt.Fprintf(w.log, "worker %d: data %s metrics %s (%d nodes + builder, restart %d)\n",
		w.o.Index, w.ep.Addr(), w.metricsAddr, nNodes, w.restarts)
	return nil
}

// heartbeat runs on the event loop every 500 ms, so a wedged loop reads
// as a dead worker. Heartbeats double as liveness and bootstrap refresh:
// every reply is a fresh WorkerConfig whose entries onConfig merges.
func (w *worker) heartbeat() {
	w.ctrl.heartbeat(w.helloMsg())
	w.ep.After(500*time.Millisecond, w.heartbeat)
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
	w.ctrl.heartbeat(w.helloMsg())
}

// report is the host's outcome sink: it runs on the event loop, so the
// acked control-channel delivery happens on its own goroutine.
func (w *worker) report(o Outcome) {
	m := o.Metrics
	us := func(at time.Duration, ok bool) int64 {
		if !ok {
			return -1
		}
		return at.Microseconds()
	}
	r := &wire.Report{
		Slot:           o.Slot,
		Index:          uint32(w.o.Index),
		HasSeed:        m.HasSeed,
		Consolidated:   m.Consolidated,
		Sampled:        m.Sampled,
		FirstSeedUs:    us(m.FirstSeedAt, m.HasSeed),
		ConsolidatedUs: us(m.ConsolidatedAt, m.Consolidated),
		SampledUs:      us(m.SampledAt, m.Sampled),
		SeedCells:      uint32(m.SeedCells),
		FetchMsgs:      uint32(m.FetchMsgsSent + m.FetchMsgsRecv),
		FetchBytes:     uint64(m.FetchBytesSent + m.FetchBytesRecv),
		CorruptRejects: uint32(m.CorruptRejects),
		Restarts:       uint32(w.restarts),
	}
	if s := o.Seeding; w.host.Builder != nil {
		r.Builder = true
		r.SeedCells, r.FetchMsgs, r.FetchBytes = uint32(s.Cells), uint32(s.Messages), uint64(s.Bytes)
		fmt.Fprintf(w.log, "worker %d: slot %d seeded %d cells in %d msgs\n",
			w.o.Index, o.Slot, s.Cells, s.Messages)
	} else {
		fmt.Fprintf(w.log, "worker %d: slot %d seed=%v cons=%v sampled=%v\n",
			w.o.Index, o.Slot, m.HasSeed, m.Consolidated, m.Sampled)
	}
	go func() { _ = w.ctrl.report(r) }()
}
