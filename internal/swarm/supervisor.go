package swarm

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/core"
	"pandas/internal/obsv"
	"pandas/internal/wire"
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

	// BootstrapSize is how many already-registered workers each
	// WorkerConfig lists as bootstrap peers (default 4). Discovery must
	// spread the rest of the table from these.
	BootstrapSize int

	// KillFraction, when positive, kills that fraction of node processes
	// each slot, KillDelay after the slot starts (victims drawn by the
	// adversary package's deterministic sortition; the builder is
	// exempt). Killed workers restart and rejoin mid-slot.
	KillFraction float64
	KillDelay    time.Duration

	MaxRestarts      int           // per-worker restart budget (default 10)
	ReadyTimeout     time.Duration // discovery convergence budget (default 60s)
	SlotTimeout      time.Duration // per-slot harvest budget (default Deadline+8s)
	SlotGap          time.Duration // pause between slots (default 300ms)
	HeartbeatTimeout time.Duration // Hello silence before a worker is declared wedged and killed (default 5s; <0 disables)
	DrainTimeout     time.Duration // graceful-shutdown budget (default 5s)

	Command       WorkerCommand // required
	Log           io.Writer     // supervisor + worker diagnostics; nil discards
	ScrapeMetrics bool          // harvest workers' Prometheus endpoints into Result.Metrics
}

func (o Options) withDefaults() Options {
	if o.Slots == 0 {
		o.Slots = 1
	}
	if o.Geometry == (Geometry{}) {
		o.Geometry = DefaultGeometry()
	}
	if o.BootstrapSize == 0 {
		o.BootstrapSize = 4
	}
	if o.KillDelay == 0 {
		o.KillDelay = 500 * time.Millisecond
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 10
	}
	if o.ReadyTimeout == 0 {
		o.ReadyTimeout = 60 * time.Second
	}
	if o.SlotTimeout == 0 {
		o.SlotTimeout = o.Geometry.Deadline + 8*time.Second
	}
	if o.SlotGap == 0 {
		o.SlotGap = 300 * time.Millisecond
	}
	if o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 5 * time.Second
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
	ctrlAddr    *net.UDPAddr // worker's control socket, learned from Hello
	dataAddr    string
	metricsAddr string
	ready       bool
	alive       bool
	gone        bool // restart budget exhausted
	lastSeen    time.Time
	launched    time.Time
	restarts    int
	fastCrashes int // consecutive sub-second lifetimes, drives backoff
}

// Supervisor runs a swarm: N node processes plus a builder process,
// config distribution, discovery bootstrap, slot driving, crash
// restart, fault injection, and outcome harvest.
type Supervisor struct {
	o    Options
	conn *net.UDPConn
	log  io.Writer

	nonce atomic.Uint64
	exits chan int
	done  chan struct{}
	wg    sync.WaitGroup

	mu              sync.Mutex
	workers         []*workerState
	curSlot         uint64
	slotStart       time.Time
	startNonce      []uint64
	startAcked      []bool
	restartedInSlot []bool
	rejoinedAt      []time.Duration
	leftAt          []time.Duration
	reports         map[int]*wire.Report
	builderReport   *wire.Report
	slotRestarts    int
	totalRestarts   int
	shuttingDown    bool
}

// Run executes a full swarm deployment and returns the merged result.
// On ready-phase failure it returns the partial result alongside the
// error so callers can still inspect what happened.
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
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("swarm: bind control socket: %w", err)
	}
	total := o.N + 1
	s := &Supervisor{
		o:               o,
		conn:            conn,
		log:             o.Log,
		exits:           make(chan int, total),
		done:            make(chan struct{}),
		workers:         make([]*workerState, total),
		startNonce:      make([]uint64, total),
		startAcked:      make([]bool, total),
		restartedInSlot: make([]bool, total),
		rejoinedAt:      make([]time.Duration, total),
		leftAt:          make([]time.Duration, total),
		reports:         make(map[int]*wire.Report),
	}
	for i := range s.workers {
		s.workers[i] = &workerState{index: i}
	}
	s.wg.Add(2)
	go s.readLoop()
	go s.monitor()
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
			time.Sleep(o.SlotGap)
		}
	}
	if o.ScrapeMetrics {
		res.Metrics = s.scrape()
	}
	s.shutdown()
	s.mu.Lock()
	res.TotalRestarts = s.totalRestarts
	s.mu.Unlock()
	return res, nil
}

// Addr returns the supervisor's control address.
func (s *Supervisor) Addr() string { return s.conn.LocalAddr().String() }

// launch starts (or restarts) worker idx's process.
func (s *Supervisor) launch(idx int) {
	s.mu.Lock()
	w := s.workers[idx]
	if s.shuttingDown || w.gone || w.alive {
		s.mu.Unlock()
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
		s.mu.Unlock()
		fmt.Fprintf(s.log, "swarm: worker %d failed to start: %v\n", idx, err)
		return
	}
	w.cmd = cmd
	w.alive = true
	w.ready = false
	w.launched = time.Now()
	w.lastSeen = time.Now() // grace until the first Hello
	s.mu.Unlock()
	go func() {
		_ = cmd.Wait()
		select {
		case s.exits <- idx:
		case <-s.done:
		}
	}()
}

// readLoop serves the control protocol: Hello→WorkerConfig, Report→Ack,
// and Start-Ack bookkeeping.
func (s *Supervisor) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, raddr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		msg, err := wire.Decode(buf[:n], 0)
		if err != nil {
			continue
		}
		switch m := msg.(type) {
		case *wire.Hello:
			s.handleHello(m, raddr)
		case *wire.Report:
			s.sendTo(raddr, &wire.Ack{Nonce: m.Nonce})
			s.handleReport(m)
		case *wire.Ack:
			s.handleAck(m)
		}
	}
}

func (s *Supervisor) handleHello(m *wire.Hello, raddr *net.UDPAddr) {
	idx := int(m.Index)
	if idx < 0 || idx >= len(s.workers) {
		return
	}
	s.mu.Lock()
	w := s.workers[idx]
	w.ctrlAddr = raddr
	w.dataAddr = m.DataAddr
	w.metricsAddr = m.MetricsAddr
	w.ready = m.Ready
	w.lastSeen = time.Now()
	reply := &wire.WorkerConfig{
		Nonce:     m.Nonce,
		NumNodes:  uint32(s.o.N),
		Seed:      s.o.Seed,
		Bootstrap: s.bootstrapLocked(idx),
	}
	s.o.Geometry.toWire(reply)
	s.mu.Unlock()
	s.sendTo(raddr, reply)
}

// bootstrapLocked picks up to BootstrapSize registered workers (lowest
// indexes first, excluding the asker) as discovery entry points.
func (s *Supervisor) bootstrapLocked(asker int) []wire.PeerEntry {
	var out []wire.PeerEntry
	for _, w := range s.workers {
		if w.index == asker || w.dataAddr == "" || !w.alive {
			continue
		}
		out = append(out, wire.PeerEntry{Index: uint32(w.index), Addr: w.dataAddr})
		if len(out) == s.o.BootstrapSize {
			break
		}
	}
	return out
}

func (s *Supervisor) handleReport(m *wire.Report) {
	idx := int(m.Index)
	if idx < 0 || idx >= len(s.workers) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Slot != s.curSlot {
		return // stale report from a previous slot's straggler
	}
	if m.Builder {
		s.builderReport = m
		return
	}
	// Keep the better report: a restarted worker may first time out
	// incomplete, then its successor completes the slot after rejoining.
	if prev, ok := s.reports[idx]; !ok || (!prev.Sampled && m.Sampled) {
		s.reports[idx] = m
	}
}

func (s *Supervisor) handleAck(m *wire.Ack) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, nonce := range s.startNonce {
		if nonce != 0 && nonce == m.Nonce && !s.startAcked[i] {
			s.startAcked[i] = true
			if s.restartedInSlot[i] && s.rejoinedAt[i] < 0 {
				s.rejoinedAt[i] = time.Since(s.slotStart)
				fmt.Fprintf(s.log, "swarm: worker %d rejoined slot %d at +%v\n",
					i, s.curSlot, s.rejoinedAt[i].Round(time.Millisecond))
			}
		}
	}
}

func (s *Supervisor) sendTo(addr *net.UDPAddr, m wire.Message) {
	data, err := wire.Encode(m, 0)
	if err != nil {
		return
	}
	_, _ = s.conn.WriteToUDP(data, addr)
}

// monitor consumes worker exits (restarting with exponential backoff)
// and enforces heartbeat liveness.
func (s *Supervisor) monitor() {
	defer s.wg.Done()
	hb := time.NewTicker(500 * time.Millisecond)
	defer hb.Stop()
	for {
		select {
		case <-s.done:
			return
		case idx := <-s.exits:
			s.handleExit(idx)
		case <-hb.C:
			s.checkHeartbeats()
		}
	}
}

func (s *Supervisor) handleExit(idx int) {
	s.mu.Lock()
	w := s.workers[idx]
	w.alive = false
	w.ready = false
	if s.shuttingDown {
		s.mu.Unlock()
		return
	}
	if s.curSlot > 0 {
		s.restartedInSlot[idx] = true
		s.startAcked[idx] = false // successor must re-ack the Start
		if s.leftAt[idx] < 0 {
			s.leftAt[idx] = time.Since(s.slotStart)
		}
	}
	if w.restarts >= s.o.MaxRestarts {
		w.gone = true
		s.mu.Unlock()
		fmt.Fprintf(s.log, "swarm: worker %d exhausted %d restarts, giving up\n", idx, s.o.MaxRestarts)
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
	streak := w.fastCrashes
	if streak > 5 {
		streak = 5
	}
	backoff := 200 * time.Millisecond << streak
	restarts := w.restarts
	s.mu.Unlock()
	fmt.Fprintf(s.log, "swarm: worker %d exited, restart %d in %v\n", idx, restarts, backoff)
	time.AfterFunc(backoff, func() { s.launch(idx) })
}

// checkHeartbeats kills workers whose Hellos stopped: a wedged process
// (live but unresponsive) is indistinguishable from a crash to the rest
// of the swarm, so it is treated as one.
func (s *Supervisor) checkHeartbeats() {
	if s.o.HeartbeatTimeout <= 0 {
		return
	}
	var stale []*os.Process
	s.mu.Lock()
	for _, w := range s.workers {
		if w.alive && w.cmd != nil && w.cmd.Process != nil &&
			time.Since(w.lastSeen) > s.o.HeartbeatTimeout {
			fmt.Fprintf(s.log, "swarm: worker %d heartbeat lost (%v), killing\n",
				w.index, time.Since(w.lastSeen).Round(time.Millisecond))
			stale = append(stale, w.cmd.Process)
		}
	}
	s.mu.Unlock()
	for _, p := range stale {
		_ = p.Kill()
	}
}

// waitReady blocks until every worker has registered, completed
// discovery, and declared ready.
func (s *Supervisor) waitReady() error {
	deadline := time.Now().Add(s.o.ReadyTimeout)
	for time.Now().Before(deadline) {
		ready, gone := 0, 0
		s.mu.Lock()
		for _, w := range s.workers {
			if w.ready {
				ready++
			}
			if w.gone {
				gone++
			}
		}
		s.mu.Unlock()
		if gone > 0 {
			return fmt.Errorf("swarm: %d workers failed permanently during bootstrap", gone)
		}
		if ready == len(s.workers) {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	var missing []string
	s.mu.Lock()
	for _, w := range s.workers {
		if !w.ready {
			missing = append(missing, strconv.Itoa(w.index))
		}
	}
	s.mu.Unlock()
	return fmt.Errorf("swarm: ready timeout; workers not ready: %s", strings.Join(missing, " "))
}

// runSlot drives one slot: Start to every node (retried until acked),
// then to the builder, optional kill injection, then harvest.
func (s *Supervisor) runSlot(slot uint64) SlotResult {
	s.mu.Lock()
	s.curSlot = slot
	s.slotStart = time.Now()
	s.reports = make(map[int]*wire.Report)
	s.builderReport = nil
	s.slotRestarts = 0
	for i := range s.startNonce {
		s.startNonce[i] = s.nonce.Add(1)
		s.startAcked[i] = false
		s.restartedInSlot[i] = false
		s.rejoinedAt[i] = -1
		s.leftAt[i] = -1
	}
	s.mu.Unlock()

	stop := make(chan struct{})
	defer close(stop)
	builderIdx := s.o.N
	for i := 0; i < builderIdx; i++ {
		go s.driveStart(slot, i, stop)
	}
	// Give node Starts a moment to land so custodians are in the slot
	// before seeding begins, then release the builder.
	s.waitAcked(builderIdx, 2*time.Second)
	go s.driveStart(slot, builderIdx, stop)

	var killTimer *time.Timer
	if s.o.KillFraction > 0 {
		killTimer = time.AfterFunc(s.o.KillDelay, func() { s.injectKills(slot) })
		defer killTimer.Stop()
	}

	deadline := time.Now().Add(s.o.SlotTimeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		got := len(s.reports)
		want := 0
		for _, w := range s.workers[:builderIdx] {
			if !w.gone {
				want++
			}
		}
		s.mu.Unlock()
		if got >= want {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return s.finalizeSlot(slot)
}

// driveStart retries the Start command for one worker until it is
// acked and the worker has not been restarted since — a successor
// process clears the ack and gets the Start again, which is how killed
// workers rejoin the slot in flight.
func (s *Supervisor) driveStart(slot uint64, idx int, stop chan struct{}) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		s.mu.Lock()
		acked := s.startAcked[idx]
		nonce := s.startNonce[idx]
		w := s.workers[idx]
		addr, gone := w.ctrlAddr, w.gone
		s.mu.Unlock()
		if gone {
			return
		}
		if !acked && addr != nil {
			s.sendTo(addr, &wire.Start{Slot: slot, Nonce: nonce})
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// waitAcked waits until every live worker below limit acked its Start.
func (s *Supervisor) waitAcked(limit int, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		ok := true
		s.mu.Lock()
		for i := 0; i < limit; i++ {
			if !s.startAcked[i] && !s.workers[i].gone {
				ok = false
				break
			}
		}
		s.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// injectKills kills this slot's sortition-selected victims. Process
// kill is the adversary model at process granularity: the victim
// vanishes mid-slot (Silent, terminally) and its restarted successor
// must rejoin and catch up.
func (s *Supervisor) injectKills(slot uint64) {
	cfg := &adversary.Config{SilentFraction: s.o.KillFraction}
	behaviors := cfg.Sortition(s.o.Seed+int64(slot)*7919, s.o.N)
	var victims []*os.Process
	s.mu.Lock()
	for i, b := range behaviors {
		if b != adversary.Silent {
			continue
		}
		w := s.workers[i]
		if w.alive && w.cmd != nil && w.cmd.Process != nil {
			fmt.Fprintf(s.log, "swarm: slot %d fault injection: killing worker %d\n", slot, i)
			victims = append(victims, w.cmd.Process)
		}
	}
	s.mu.Unlock()
	for _, p := range victims {
		_ = p.Kill()
	}
}

// finalizeSlot folds the harvested reports into the simnet's outcome
// schema, so swarm results line up with EXPERIMENTS.md tables.
func (s *Supervisor) finalizeSlot(slot uint64) SlotResult {
	dur := func(us int64) time.Duration {
		return time.Duration(us) * time.Microsecond
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := SlotResult{Slot: slot, Restarts: s.slotRestarts}
	sr.Outcomes = make([]core.NodeOutcome, s.o.N)
	for i := range sr.Outcomes {
		oc := core.NewNodeOutcome()
		if r := s.reports[i]; r != nil {
			sr.Reports++
			if r.HasSeed {
				oc.Seed = dur(r.FirstSeedUs)
			}
			if r.Consolidated {
				oc.Consolidation = dur(r.ConsolidatedUs)
				if r.HasSeed {
					oc.ConsFromSeed = oc.Consolidation - oc.Seed
				}
			}
			if r.Sampled {
				oc.Sampling = dur(r.SampledUs)
			}
			oc.FetchMsgs = int(r.FetchMsgs)
			oc.FetchBytes = int64(r.FetchBytes)
		} else if s.workers[i].gone {
			oc.Dead = true
		}
		if s.rejoinedAt[i] >= 0 {
			oc.JoinedAt = s.rejoinedAt[i]
			sr.Rejoined++
		}
		if s.leftAt[i] >= 0 {
			oc.LeftAt = s.leftAt[i]
		}
		sr.Outcomes[i] = oc
	}
	if s.builderReport != nil {
		sr.BuilderCells = int(s.builderReport.SeedCells)
		sr.BuilderBytes = int64(s.builderReport.FetchBytes)
	}
	fmt.Fprintf(s.log, "swarm: slot %d harvested %d/%d reports (%d restarts, %d rejoined)\n",
		slot, sr.Reports, s.o.N, sr.Restarts, sr.Rejoined)
	return sr
}

// scrape merges every live worker's Prometheus endpoint into one
// snapshot. Failures are logged and skipped: observability must not
// fail the run.
func (s *Supervisor) scrape() obsv.Snapshot {
	s.mu.Lock()
	addrs := make([]string, 0, len(s.workers))
	for _, w := range s.workers {
		if w.metricsAddr != "" && w.alive {
			addrs = append(addrs, w.metricsAddr)
		}
	}
	s.mu.Unlock()
	client := &http.Client{Timeout: 2 * time.Second}
	merged := obsv.Snapshot{}
	for _, addr := range addrs {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			fmt.Fprintf(s.log, "swarm: scrape %s: %v\n", addr, err)
			continue
		}
		snap, err := obsv.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(s.log, "swarm: parse %s: %v\n", addr, err)
			continue
		}
		merged = merged.Merge(snap)
	}
	return merged
}

// shutdown drains the swarm: SIGTERM to every worker, a grace period,
// SIGKILL for stragglers, then control-plane teardown. Idempotent.
func (s *Supervisor) shutdown() {
	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		return
	}
	s.shuttingDown = true
	var procs []*os.Process
	for _, w := range s.workers {
		if w.alive && w.cmd != nil && w.cmd.Process != nil {
			procs = append(procs, w.cmd.Process)
		}
	}
	s.mu.Unlock()
	for _, p := range procs {
		_ = p.Signal(syscall.SIGTERM)
	}
	deadline := time.Now().Add(s.o.DrainTimeout)
	for time.Now().Before(deadline) {
		alive := 0
		s.mu.Lock()
		for _, w := range s.workers {
			if w.alive {
				alive++
			}
		}
		s.mu.Unlock()
		if alive == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	s.mu.Lock()
	for _, w := range s.workers {
		if w.alive && w.cmd != nil && w.cmd.Process != nil {
			fmt.Fprintf(s.log, "swarm: worker %d did not drain, killing\n", w.index)
			_ = w.cmd.Process.Kill()
		}
	}
	s.mu.Unlock()
	close(s.done)
	_ = s.conn.Close()
	s.wg.Wait()
}
