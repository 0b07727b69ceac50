package swarm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/core"
)

// WorkerCommand builds the (unstarted) command for worker index i. The
// supervisor appends "-swarm ADDR -index I" and the EnvRestarts
// variable before launching.
type WorkerCommand func(index int) *exec.Cmd

// Options configures a swarm run.
type Options struct {
	N     int   // protocol nodes; the builder is index N, so N+1 processes
	Slots int   // slots to drive
	Seed  int64 // deployment seed (identities, sortition)

	Geometry Geometry

	// KillFraction, when positive, kills that fraction of node processes
	// each slot, KillDelay (default 100ms) after the slot starts (victims
	// drawn by the adversary package's deterministic sortition; the
	// builder is exempt). Killed workers restart and rejoin mid-slot. A
	// slot is not harvested before its kills have happened, so the
	// schedule holds however fast the swarm is.
	KillFraction float64
	KillDelay    time.Duration

	Command WorkerCommand // required
	Log     io.Writer     // supervisor + worker diagnostics; nil discards

	// Unexported so that only this package's tests can shorten them.
	maxRestarts      int           // per-worker restart budget (default 10)
	slotTimeout      time.Duration // per-slot harvest budget (default Deadline+8s)
	heartbeatTimeout time.Duration // hello silence before a worker is declared wedged and killed (default 5s)
}

const (
	readyTimeout = 60 * time.Second       // budget for every worker to register and hold the full table
	slotGap      = 300 * time.Millisecond // pause between slots
	drainTimeout = 5 * time.Second        // graceful-shutdown budget, then again for SIGKILL to take
)

func (o Options) withDefaults() Options {
	if o.Slots == 0 {
		o.Slots = 1
	}
	if o.Geometry == (Geometry{}) {
		o.Geometry = DefaultGeometry()
	}
	if o.KillDelay == 0 {
		o.KillDelay = 100 * time.Millisecond
	}
	if o.maxRestarts == 0 {
		o.maxRestarts = 10
	}
	if o.slotTimeout == 0 {
		o.slotTimeout = core.DefaultConfig().Deadline + 8*time.Second
	}
	if o.heartbeatTimeout == 0 {
		o.heartbeatTimeout = 5 * time.Second
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

// workerState is the supervisor's view of one worker process.
type workerState struct {
	index       int
	cmd         *exec.Cmd
	conn        *ctrlConn // the live process's control connection, nil until its first hello
	dataAddr    string    // from its hello; kept across restarts until a successor registers another
	ready       bool
	alive       bool
	gone        bool // restart budget exhausted
	lastSeen    time.Time
	launched    time.Time
	restarts    int
	fastCrashes int // consecutive sub-second lifetimes, drives backoff

	// Per-slot state, reset by runSlot.
	report     *report
	leftAt     time.Duration // first process exit after the slot start (-1: none)
	rejoinedAt time.Duration // when its successor was handed the slot's start (-1: none)
}

// event is everything that reaches the supervisor from outside its own
// goroutine: connection readers, process waiters and timers post events,
// and the event loop alone acts on them.
type event struct {
	kind  eventKind
	conn  *ctrlConn // evFrame, evClosed
	frame frame     // evFrame
	err   error     // evClosed: why the connection ended
	index int       // evExited, evRelaunch
	slot  uint64    // evKill
}

type eventKind int

const (
	evFrame    eventKind = iota // a frame arrived on conn
	evClosed                    // conn ended: EOF, reset, or a malformed or oversized line
	evExited                    // worker index's process exited
	evRelaunch                  // worker index's restart backoff elapsed
	evKill                      // slot's kill-injection delay elapsed
)

// Supervisor runs a swarm: N node processes plus a builder process,
// config and peer-table distribution, slot driving, crash restart, fault
// injection, and outcome harvest.
//
// It is one event loop. The goroutine that calls Run owns every field
// below events and is the only one to read or write them; it blocks only
// in handleUntil, which handles events until a condition holds or a
// deadline passes.
type Supervisor struct {
	o   Options
	ln  net.Listener
	log io.Writer

	events chan event
	done   chan struct{}  // closed by shutdown: posters give up
	wg     sync.WaitGroup // the accept loop and the connection readers

	workers       []*workerState
	slot          uint64 // the slot being driven, 0 between slots
	slotStart     time.Time
	killPending   bool // the slot's kill injection has not happened yet
	slotRestarts  int
	totalRestarts int
	shuttingDown  bool
}

// Run executes a full swarm deployment and returns the merged result.
// On ready-phase failure it returns the partial result alongside the
// error so callers can still inspect what happened. When it returns,
// every worker process it started has exited and been reaped.
func Run(o Options) (*Result, error) {
	o = o.withDefaults()
	if o.Command == nil {
		return nil, fmt.Errorf("swarm: Options.Command is required")
	}
	if o.N < 2 {
		return nil, fmt.Errorf("swarm: need at least 2 nodes, got %d", o.N)
	}
	// A geometry every worker would reject on receipt fails here, before
	// any process is launched.
	if _, err := o.Geometry.CoreConfig(); err != nil {
		return nil, fmt.Errorf("swarm: geometry: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("swarm: bind control listener: %w", err)
	}
	total := o.N + 1
	s := &Supervisor{
		o:       o,
		ln:      ln,
		log:     o.Log,
		events:  make(chan event),
		done:    make(chan struct{}),
		workers: make([]*workerState, total),
	}
	for i := range s.workers {
		s.workers[i] = &workerState{index: i}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	defer s.shutdown()

	fmt.Fprintf(s.log, "swarm: control %s, launching %d workers (%d nodes + builder)\n",
		s.Addr(), total, o.N)
	for i := 0; i < total; i++ {
		s.launch(i)
	}

	res := &Result{
		N:            o.N,
		Slots:        o.Slots,
		Seed:         o.Seed,
		Geometry:     o.Geometry,
		KillFraction: o.KillFraction,
	}
	if err := s.waitReady(); err != nil {
		return res, err
	}
	fmt.Fprintf(s.log, "swarm: all %d workers ready\n", total)

	for slot := uint64(1); slot <= uint64(o.Slots); slot++ {
		res.SlotResults = append(res.SlotResults, s.runSlot(slot))
		if slot < uint64(o.Slots) {
			s.handleUntil(slotGap, func() bool { return false })
		}
	}
	s.shutdown()
	res.TotalRestarts = s.totalRestarts
	return res, nil
}

// Addr returns the supervisor's control address.
func (s *Supervisor) Addr() string { return s.ln.Addr().String() }

// post hands ev to the event loop; false means the supervisor shut down
// first.
func (s *Supervisor) post(ev event) bool {
	select {
	case s.events <- ev:
		return true
	case <-s.done:
		return false
	}
}

// handleUntil runs the event loop until cond holds (true) or timeout
// passes (false). It is the only place the supervisor waits.
func (s *Supervisor) handleUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	heartbeats := time.NewTicker(heartbeatEvery)
	defer heartbeats.Stop()
	for !cond() {
		select {
		case ev := <-s.events:
			s.handle(ev)
		case <-heartbeats.C:
			s.checkHeartbeats()
		case <-deadline.C:
			return false
		}
	}
	return true
}

func (s *Supervisor) handle(ev event) {
	switch ev.kind {
	case evFrame:
		switch c, f := ev.conn, ev.frame; {
		case c.dropped:
		case f.Hello != nil:
			s.handleHello(c, f.Hello)
		case f.Report != nil && c.index >= 0:
			s.handleReport(s.workers[c.index], f.Report)
		default: // a frame only the supervisor sends, or a report before any hello
			s.drop(c, errBadFrame)
		}
	case evClosed:
		c := ev.conn
		if errors.Is(ev.err, errBadFrame) { // the rest is a peer going away, which its exit reports
			fmt.Fprintf(s.log, "swarm: closed control connection from %s: %v\n", c.conn.RemoteAddr(), ev.err)
		}
		if c.index >= 0 && s.workers[c.index].conn == c {
			s.workers[c.index].conn = nil
		}
	case evExited:
		s.handleExit(ev.index)
	case evRelaunch:
		s.launch(ev.index)
	case evKill:
		if ev.slot == s.slot {
			s.injectKills()
			s.killPending = false
		}
	}
}

// acceptLoop takes the workers' connections until shutdown closes the
// listener, then closes every connection it accepted, which ends their
// readers.
func (s *Supervisor) acceptLoop() {
	defer s.wg.Done()
	var accepted []net.Conn
	defer func() {
		for _, conn := range accepted {
			_ = conn.Close()
		}
	}()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(s.log, "swarm: control listener: %v\n", err)
			}
			return
		}
		accepted = append(accepted, conn)
		s.wg.Add(1)
		go s.readLoop(newCtrlConn(conn))
	}
}

// readLoop forwards one connection's frames to the event loop. Frames
// come from outside the process: the first line that is oversized, not
// JSON, or not exactly one frame ends the connection unacted on.
func (s *Supervisor) readLoop(c *ctrlConn) {
	defer s.wg.Done()
	for {
		f, err := c.recv()
		if err != nil {
			_ = c.conn.Close()
			s.post(event{kind: evClosed, conn: c, err: err})
			return
		}
		if !s.post(event{kind: evFrame, conn: c, frame: f}) {
			return
		}
	}
}

// drop closes a connection that broke the protocol. Its reader then
// posts evClosed, which is where a registered worker loses it.
func (s *Supervisor) drop(c *ctrlConn, err error) {
	fmt.Fprintf(s.log, "swarm: closing control connection from %s: %v\n", c.conn.RemoteAddr(), err)
	c.dropped = true
	_ = c.conn.Close()
}

// send writes one frame to a worker, if it has a connection. A failed
// write (the process just died, or stopped reading) closes the connection
// without comment: a live worker drains when it notices, and either way
// the exit is what gets logged and acted on.
func (s *Supervisor) send(w *workerState, f frame) {
	if w.conn != nil && w.conn.send(f) != nil {
		_ = w.conn.conn.Close()
	}
}

// launch starts (or restarts) worker idx's process.
func (s *Supervisor) launch(idx int) {
	w := s.workers[idx]
	if s.shuttingDown || w.gone || w.alive {
		return
	}
	cmd := s.o.Command(idx)
	cmd.Args = append(cmd.Args, "-swarm", s.Addr(), "-index", strconv.Itoa(idx))
	if cmd.Env == nil {
		cmd.Env = os.Environ()
	}
	cmd.Env = append(cmd.Env, EnvRestarts+"="+strconv.Itoa(w.restarts))
	if cmd.Stdout == nil {
		cmd.Stdout = s.log
	}
	if cmd.Stderr == nil {
		cmd.Stderr = s.log
	}
	if err := cmd.Start(); err != nil {
		w.gone = true
		fmt.Fprintf(s.log, "swarm: worker %d failed to start: %v\n", idx, err)
		return
	}
	w.cmd = cmd
	w.alive = true
	w.ready = false
	w.launched = time.Now()
	w.lastSeen = time.Now() // grace until the first hello
	go func() {
		_ = cmd.Wait()
		s.post(event{kind: evExited, index: idx})
	}()
}

// handleHello registers a connection on its first hello (an index takes
// one connection at a time), refreshes the worker's liveness on every one,
// and always answers with a config. The data address a connection
// registers with is the one it keeps: it must be a numeric ip:port, since
// every worker resolves it, and a later hello may not change it. A
// registration that moves an index to a new address (a restarted worker)
// sends the new table to every connected worker at once; first
// registrations reach the others in their next heartbeat's reply.
//
// A connection that registers while a slot is running belongs to a
// process that was not there when the slot's start went out (a restarted
// worker, usually), so it is handed that start now: once, because a
// connection registers once.
func (s *Supervisor) handleHello(c *ctrlConn, m *hello) {
	if m.Index < 0 || m.Index >= len(s.workers) || (c.index >= 0 && c.index != m.Index) {
		s.drop(c, fmt.Errorf("hello for index %d", m.Index))
		return
	}
	w := s.workers[m.Index]
	registers := c.index < 0
	switch {
	case !registers && m.DataAddr != w.dataAddr:
		s.drop(c, fmt.Errorf("hello for index %d moves its data address to %q", m.Index, m.DataAddr))
		return
	case registers:
		if _, err := netip.ParseAddrPort(m.DataAddr); err != nil {
			s.drop(c, fmt.Errorf("hello for index %d: data address: %v", m.Index, err))
			return
		}
		// A worker's connection ends when its process does, long before
		// the restart backoff lets a successor dial: an index that is
		// still connected is not being claimed by its own successor.
		if w.conn != nil {
			s.drop(c, fmt.Errorf("hello for index %d, which is connected", m.Index))
			return
		}
		c.index, w.conn = m.Index, c
	}
	moved := registers && w.dataAddr != "" && w.dataAddr != m.DataAddr
	w.dataAddr = m.DataAddr
	w.ready = m.Ready
	w.lastSeen = time.Now()
	cfg := frame{Config: s.config()}
	s.send(w, cfg)
	if moved {
		for _, other := range s.workers {
			if other != w {
				s.send(other, cfg)
			}
		}
	}
	if registers && s.slot != 0 {
		s.send(w, frame{Start: &start{Slot: s.slot}})
		if w.leftAt >= 0 && w.rejoinedAt < 0 {
			w.rejoinedAt = time.Since(s.slotStart)
			fmt.Fprintf(s.log, "swarm: worker %d rejoined slot %d at +%v\n",
				w.index, s.slot, w.rejoinedAt.Round(time.Millisecond))
		}
	}
}

// config is the deployment and the peer table as the supervisor knows it.
func (s *Supervisor) config() *config {
	peers := make([]string, len(s.workers))
	for i, w := range s.workers {
		peers[i] = w.dataAddr
	}
	return &config{Nodes: s.o.N, Seed: s.o.Seed, Geometry: s.o.Geometry, Peers: peers}
}

func (s *Supervisor) handleReport(w *workerState, m *report) {
	if m.Slot != s.slot {
		return // a straggler's report for a slot already harvested
	}
	// Keep the better report: a restarted worker may first time out
	// incomplete, then its successor completes the slot after rejoining.
	sampled := func(r *report) bool { return r.Node != nil && r.Node.Sampling >= 0 }
	if w.report == nil || (!sampled(w.report) && sampled(m)) {
		w.report = m
	}
}

// handleExit restarts an exited worker after an exponential backoff.
func (s *Supervisor) handleExit(idx int) {
	w := s.workers[idx]
	w.alive = false
	w.ready = false
	if s.shuttingDown {
		return
	}
	if s.slot != 0 && w.leftAt < 0 {
		w.leftAt = time.Since(s.slotStart)
	}
	if w.restarts >= s.o.maxRestarts {
		w.gone = true
		fmt.Fprintf(s.log, "swarm: worker %d exhausted %d restarts, giving up\n", idx, s.o.maxRestarts)
		return
	}
	w.restarts++
	s.totalRestarts++
	s.slotRestarts++
	if time.Since(w.launched) < time.Second {
		w.fastCrashes++
	} else {
		w.fastCrashes = 0
	}
	backoff := 200 * time.Millisecond << min(w.fastCrashes, 5)
	fmt.Fprintf(s.log, "swarm: worker %d exited, restart %d in %v\n", idx, w.restarts, backoff)
	time.AfterFunc(backoff, func() { s.post(event{kind: evRelaunch, index: idx}) })
}

// checkHeartbeats kills workers whose hellos stopped: a wedged process
// (live but unresponsive) is indistinguishable from a crash to the rest
// of the swarm, so it is treated as one. The stream says when a process
// is gone, not when it is stuck, which is why heartbeats stay.
func (s *Supervisor) checkHeartbeats() {
	if s.shuttingDown {
		return
	}
	for _, w := range s.workers {
		if silent := time.Since(w.lastSeen); w.alive && silent > s.o.heartbeatTimeout {
			fmt.Fprintf(s.log, "swarm: worker %d heartbeat lost (%v), killing\n",
				w.index, silent.Round(time.Millisecond))
			_ = w.cmd.Process.Kill()
		}
	}
}

// count returns how many workers satisfy pred.
func (s *Supervisor) count(pred func(*workerState) bool) int {
	n := 0
	for _, w := range s.workers {
		if pred(w) {
			n++
		}
	}
	return n
}

// waitReady handles events until every worker has registered, learned
// the full peer table, and declared ready.
func (s *Supervisor) waitReady() error {
	gone := func(w *workerState) bool { return w.gone }
	ready := func(w *workerState) bool { return w.ready }
	inTime := s.handleUntil(readyTimeout, func() bool {
		return s.count(gone) > 0 || s.count(ready) == len(s.workers)
	})
	if n := s.count(gone); n > 0 {
		return fmt.Errorf("swarm: %d workers failed permanently during bootstrap", n)
	}
	if inTime {
		return nil
	}
	var missing []string
	for _, w := range s.workers {
		if !w.ready {
			missing = append(missing, strconv.Itoa(w.index))
		}
	}
	return fmt.Errorf("swarm: ready timeout; workers not ready: %s", strings.Join(missing, " "))
}

// runSlot drives one slot: a start to every connected worker — nodes
// first, the builder (the last index) after them; a node would follow the
// builder's signed seeds anyway, so the order is a courtesy — optional
// kill injection, then harvest until the kills have happened and every
// worker that can report has, or the slot timeout. The builder is waited
// for too: its report carries the slot's seeding counts and can reach the
// supervisor after the nodes', which sample within milliseconds of it.
func (s *Supervisor) runSlot(slot uint64) SlotResult {
	s.slot, s.slotStart, s.slotRestarts = slot, time.Now(), 0
	for _, w := range s.workers {
		w.report, w.leftAt, w.rejoinedAt = nil, -1, -1
		s.send(w, frame{Start: &start{Slot: slot}})
	}
	if s.killPending = s.o.KillFraction > 0; s.killPending {
		kill := time.AfterFunc(s.o.KillDelay, func() { s.post(event{kind: evKill, slot: slot}) })
		defer kill.Stop()
	}
	s.handleUntil(s.o.slotTimeout, func() bool {
		if s.killPending {
			return false
		}
		for _, w := range s.workers {
			if w.report == nil && !w.gone {
				return false
			}
		}
		return true
	})
	s.slot = 0
	return s.finalizeSlot(slot)
}

// injectKills kills this slot's sortition-selected victims. Process
// kill is the adversary model at process granularity: the victim
// vanishes mid-slot (Silent, terminally) and its restarted successor
// must rejoin and catch up.
func (s *Supervisor) injectKills() {
	cfg := &adversary.Config{SilentFraction: s.o.KillFraction}
	for i, b := range cfg.Sortition(s.o.Seed+int64(s.slot)*7919, s.o.N) {
		if w := s.workers[i]; b == adversary.Silent && w.alive {
			fmt.Fprintf(s.log, "swarm: slot %d fault injection: killing worker %d\n", s.slot, i)
			_ = w.cmd.Process.Kill()
		}
	}
}

// finalizeSlot collects the harvested node records as the simnet's
// outcomes, so swarm results line up with EXPERIMENTS.md tables. A record
// is the worker's Node.Outcome as it reported it; the supervisor adds only
// what it saw itself: deaths, departures and rejoins.
func (s *Supervisor) finalizeSlot(slot uint64) SlotResult {
	sr := SlotResult{Slot: slot, Restarts: s.slotRestarts}
	sr.Outcomes = make([]core.NodeOutcome, s.o.N)
	for i, w := range s.workers[:s.o.N] {
		oc := core.NewNodeOutcome()
		if r := w.report; r != nil && r.Node != nil {
			sr.Reports++
			oc = *r.Node
		} else if w.gone {
			oc.Dead = true
		}
		oc.JoinedAt, oc.LeftAt = w.rejoinedAt, w.leftAt // -1 when none
		if w.rejoinedAt >= 0 {
			sr.Rejoined++
		}
		sr.Outcomes[i] = oc
	}
	if r := s.workers[s.o.N].report; r != nil && r.Seeding != nil {
		sr.Seeding = *r.Seeding
	}
	fmt.Fprintf(s.log, "swarm: slot %d harvested %d/%d reports (%d restarts, %d rejoined)\n",
		slot, sr.Reports, s.o.N, sr.Restarts, sr.Rejoined)
	return sr
}

// shutdown drains the swarm: SIGTERM to every worker, a grace period,
// SIGKILL for stragglers and a wait for that to take, then control-plane
// teardown. Idempotent.
func (s *Supervisor) shutdown() {
	if s.shuttingDown {
		return
	}
	s.shuttingDown = true
	alive := func(w *workerState) bool { return w.alive }
	noneAlive := func() bool { return s.count(alive) == 0 }
	for _, w := range s.workers {
		if w.alive {
			_ = w.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	if !s.handleUntil(drainTimeout, noneAlive) {
		for _, w := range s.workers {
			if w.alive {
				fmt.Fprintf(s.log, "swarm: worker %d did not drain, killing\n", w.index)
				_ = w.cmd.Process.Kill()
			}
		}
		s.handleUntil(drainTimeout, noneAlive)
	}
	close(s.done)
	_ = s.ln.Close()
	s.wg.Wait()
}
