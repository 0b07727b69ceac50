package membership

import (
	"math/rand"
	"time"
)

// Dynamic-membership defaults.
const (
	// DefaultRefreshInterval is the period of DHT-crawl view refresh.
	// Real crawls take about a minute (§4.1); half a slot keeps views
	// usefully fresh at simulation scale without flooding the event
	// queue.
	DefaultRefreshInterval = 6 * time.Second
	// DefaultRefreshFanout is the number of random-target lookups per
	// refresh crawl.
	DefaultRefreshFanout = 2
)

// Clock is the scheduling substrate (the simulator's event clock).
type Clock interface {
	Now() time.Duration
	After(d time.Duration, fn func())
}

// FlashEvent is a burst of simultaneous lifecycle transitions: a flash
// crowd (Join nodes come online) and/or a flash exit (Leave nodes go
// offline) at a fixed virtual time.
type FlashEvent struct {
	// At is the virtual time of the burst, measured from engine start.
	At time.Duration
	// Join is the number of offline nodes brought online.
	Join int
	// Leave is the number of online nodes taken offline.
	Leave int
	// Crash marks the departures as crashes (unannounced) rather than
	// graceful leaves.
	Crash bool
}

// Config describes the dynamic-membership model: the churn processes the
// Engine schedules plus the view-refresh period the cluster wires up.
// The zero value is inactive (static membership).
type Config struct {
	// MeanSession is the expected online duration before a node departs
	// (sessions are exponential). Zero disables spontaneous departures.
	MeanSession time.Duration
	// MeanDowntime is the expected offline duration before a departed
	// node restarts (exponential). Zero keeps departed nodes offline.
	MeanDowntime time.Duration
	// JoinRate is the Poisson rate (events/second) at which members of
	// the initial offline pool come online for the first time. Restarts
	// after downtime are governed by MeanDowntime instead.
	JoinRate float64
	// CrashFraction is the probability that a departure is a crash (no
	// announcement, stale state left behind) rather than a graceful
	// leave.
	CrashFraction float64
	// InitialOfflineFraction of nodes start offline, forming the pool
	// that JoinRate and flash crowds draw fresh joiners from.
	InitialOfflineFraction float64
	// Flash lists scheduled burst events.
	Flash []FlashEvent

	// RefreshInterval is the per-node period of DHT-crawl view refresh;
	// zero selects DefaultRefreshInterval, negative disables refresh.
	// Crawls look up DefaultRefreshFanout random targets, and peers are
	// scored with the Scorer's fixed backoff and penalty.
	RefreshInterval time.Duration
}

// Active reports whether the configuration produces any membership
// dynamics at all. An inactive config is equivalent to nil: the cluster
// takes the static-membership fast path, which is what makes a zero-rate
// churn sweep bit-identical to the paper's Fig. 15 runs.
func (c *Config) Active() bool {
	if c == nil {
		return false
	}
	return c.MeanSession > 0 || c.JoinRate > 0 || c.InitialOfflineFraction > 0 || len(c.Flash) > 0
}

// Stats counts lifecycle events the engine has executed.
type Stats struct {
	Joins    int // pool nodes coming online for the first time
	Restarts int // departed nodes coming back
	Leaves   int // graceful departures
	Crashes  int // unannounced departures
}

// Minus returns the event counts accumulated since prev.
func (s Stats) Minus(prev Stats) Stats {
	return Stats{
		Joins:    s.Joins - prev.Joins,
		Restarts: s.Restarts - prev.Restarts,
		Leaves:   s.Leaves - prev.Leaves,
		Crashes:  s.Crashes - prev.Crashes,
	}
}

// Hooks are the engine's effect callbacks, invoked on the event clock.
type Hooks struct {
	// OnJoin fires when a node comes online; restart distinguishes a
	// returning node (stale local state) from a first-time joiner.
	OnJoin func(node int, restart bool)
	// OnLeave fires when a node goes offline; crash distinguishes an
	// unannounced failure from a graceful leave.
	OnLeave func(node int, crash bool)
}

// indexSet is a deterministic set over node indices with O(1) random
// selection (map iteration order would break reproducibility).
type indexSet struct {
	items []int
	pos   map[int]int
}

func newIndexSet() *indexSet { return &indexSet{pos: make(map[int]int)} }

func (s *indexSet) add(v int) {
	if _, ok := s.pos[v]; ok {
		return
	}
	s.pos[v] = len(s.items)
	s.items = append(s.items, v)
}

func (s *indexSet) remove(v int) {
	i, ok := s.pos[v]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.pos[s.items[i]] = i
	s.items = s.items[:last]
	delete(s.pos, v)
}

func (s *indexSet) has(v int) bool { _, ok := s.pos[v]; return ok }
func (s *indexSet) len() int       { return len(s.items) }

func (s *indexSet) random(rng *rand.Rand) (int, bool) {
	if len(s.items) == 0 {
		return 0, false
	}
	return s.items[rng.Intn(len(s.items))], true
}

// Engine schedules node lifecycle events over a fixed population of n
// nodes on the event clock. It owns the online/offline state machine and
// invokes Hooks for the effects (marking simulator nodes dead, resetting
// protocol state, gossiping announcements); it knows nothing about the
// protocol itself. All randomness comes from its own seeded generator,
// so enabling churn does not perturb the cluster's other random choices.
type Engine struct {
	cfg      Config
	clock    Clock
	rng      *rand.Rand
	hooks    Hooks
	online   *indexSet
	offline  *indexSet
	pool     *indexSet // initial-offline nodes that never joined
	excluded map[int]bool
	started  bool
	stats    Stats
}

// NewEngine creates a churn engine over nodes 0..n-1.
func NewEngine(cfg Config, clock Clock, rng *rand.Rand, n int, hooks Hooks) *Engine {
	e := &Engine{
		cfg:      cfg,
		clock:    clock,
		rng:      rng,
		hooks:    hooks,
		online:   newIndexSet(),
		offline:  newIndexSet(),
		pool:     newIndexSet(),
		excluded: make(map[int]bool),
	}
	for i := 0; i < n; i++ {
		e.online.add(i)
	}
	return e
}

// Exclude removes nodes from churn management (e.g. nodes pinned dead by
// a separate fault model); they stay in whatever state they are in. Must
// be called before Start.
func (e *Engine) Exclude(nodes ...int) {
	for _, v := range nodes {
		e.excluded[v] = true
		e.online.remove(v)
		e.offline.remove(v)
		e.pool.remove(v)
	}
}

// Start draws the initial offline pool and schedules every churn
// process. Call exactly once, before the simulation runs.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	// Initial offline pool: a random subset starts out of the network.
	if f := e.cfg.InitialOfflineFraction; f > 0 {
		count := int(float64(e.online.len()) * f)
		candidates := append([]int(nil), e.online.items...)
		e.rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		for _, v := range candidates[:count] {
			e.online.remove(v)
			e.offline.add(v)
			e.pool.add(v)
		}
	}
	// Session timers for every initially online node.
	for _, v := range append([]int(nil), e.online.items...) {
		e.scheduleSession(v)
	}
	// Poisson join process from the pool.
	if e.cfg.JoinRate > 0 {
		e.scheduleNextPoolJoin()
	}
	// Flash events.
	for _, ev := range e.cfg.Flash {
		ev := ev
		e.clock.After(ev.At, func() { e.flash(ev) })
	}
}

// Online reports whether a node is currently online. Excluded nodes
// report their construction-time state (online).
func (e *Engine) Online(node int) bool {
	return !e.offline.has(node)
}

// OnlineCount returns the number of online managed nodes.
func (e *Engine) OnlineCount() int { return e.online.len() }

// Stats returns cumulative lifecycle-event counts.
func (e *Engine) Stats() Stats { return e.stats }

// expDur draws an exponential duration with the given mean.
func (e *Engine) expDur(mean time.Duration) time.Duration {
	return time.Duration(e.rng.ExpFloat64() * float64(mean))
}

func (e *Engine) scheduleSession(node int) {
	if e.cfg.MeanSession <= 0 {
		return
	}
	e.clock.After(e.expDur(e.cfg.MeanSession), func() {
		if !e.online.has(node) {
			return // already departed (e.g. flash exit)
		}
		e.leave(node, e.rng.Float64() < e.cfg.CrashFraction)
	})
}

func (e *Engine) scheduleNextPoolJoin() {
	if e.pool.len() == 0 {
		return
	}
	e.clock.After(e.expDur(time.Duration(float64(time.Second)/e.cfg.JoinRate)), func() {
		if node, ok := e.pool.random(e.rng); ok {
			e.join(node, false)
		}
		e.scheduleNextPoolJoin()
	})
}

func (e *Engine) leave(node int, crash bool) {
	e.online.remove(node)
	e.offline.add(node)
	if crash {
		e.stats.Crashes++
	} else {
		e.stats.Leaves++
	}
	if e.hooks.OnLeave != nil {
		e.hooks.OnLeave(node, crash)
	}
	if e.cfg.MeanDowntime > 0 {
		e.clock.After(e.expDur(e.cfg.MeanDowntime), func() {
			if e.offline.has(node) {
				e.join(node, true)
			}
		})
	}
}

func (e *Engine) join(node int, restart bool) {
	e.offline.remove(node)
	e.pool.remove(node)
	e.online.add(node)
	if restart {
		e.stats.Restarts++
	} else {
		e.stats.Joins++
	}
	if e.hooks.OnJoin != nil {
		e.hooks.OnJoin(node, restart)
	}
	e.scheduleSession(node)
}

func (e *Engine) flash(ev FlashEvent) {
	for i := 0; i < ev.Join; i++ {
		// Prefer fresh pool nodes; fall back to any offline node
		// (restarts) once the pool is dry.
		if node, ok := e.pool.random(e.rng); ok {
			e.join(node, false)
			continue
		}
		node, ok := e.offline.random(e.rng)
		if !ok {
			break
		}
		e.join(node, true)
	}
	for i := 0; i < ev.Leave; i++ {
		node, ok := e.online.random(e.rng)
		if !ok {
			break
		}
		e.leave(node, ev.Crash)
	}
}
