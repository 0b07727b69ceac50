package membership

import (
	"math/rand"
	"time"
)

// Clock is the scheduling substrate (the simulator's event clock).
type Clock interface {
	Now() time.Duration
	After(d time.Duration, fn func())
}

// Config describes the dynamic-membership model: the session process the
// Engine runs. The zero value is inactive (static membership).
type Config struct {
	// MeanSession is the expected online duration before a node departs
	// (sessions are exponential). Zero disables spontaneous departures.
	MeanSession time.Duration
	// MeanDowntime is the expected offline duration before a departed
	// node restarts (exponential). Zero keeps departed nodes offline.
	MeanDowntime time.Duration
}

// Active reports whether the configuration produces any membership
// dynamics at all. An inactive config is equivalent to nil: the cluster
// takes the static-membership fast path, which is what makes a zero-rate
// churn sweep bit-identical to the paper's Fig. 15 runs.
func (c *Config) Active() bool {
	if c == nil {
		return false
	}
	return c.MeanSession > 0
}

// crashFraction is the probability that a session ending is a crash (no
// announcement, stale state left behind) rather than a graceful leave.
const crashFraction = 0.5

// Stats counts lifecycle events the engine has executed.
type Stats struct {
	Joins    int // held-out nodes coming online for the first time
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

// Engine owns the online/offline state of a fixed population of n nodes
// on the event clock. It runs the session process (exponential sessions
// and downtimes) and exposes the same transitions to its driver (Join,
// Restart, Leave), invoking Hooks for the effects (marking simulator
// nodes dead, resetting protocol state, gossiping announcements); it
// knows nothing about the protocol itself. All randomness comes from its
// own seeded generator, so enabling churn does not perturb the cluster's
// other random choices.
type Engine struct {
	cfg     Config
	clock   Clock
	rng     *rand.Rand
	hooks   Hooks
	online  *indexSet
	offline *indexSet // departed nodes
	pool    *indexSet // nodes held out of the network that never joined
	// gen counts each node's transitions; a session or downtime timer
	// fires only in the lifetime that armed it.
	gen   []uint32
	stats Stats
}

// NewEngine creates a churn engine over nodes 0..n-1.
func NewEngine(cfg Config, clock Clock, rng *rand.Rand, n int, hooks Hooks) *Engine {
	e := &Engine{
		cfg:     cfg,
		clock:   clock,
		rng:     rng,
		hooks:   hooks,
		online:  newIndexSet(),
		offline: newIndexSet(),
		pool:    newIndexSet(),
		gen:     make([]uint32, n),
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
		e.online.remove(v)
	}
}

// Start holds pool random nodes out of the network, for Join to bring in
// later, and arms the session timer of every other managed node. Call
// exactly once, before the simulation runs.
func (e *Engine) Start(pool int) {
	if pool > 0 {
		candidates := append([]int(nil), e.online.items...)
		e.rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		for _, v := range candidates[:min(pool, len(candidates))] {
			e.online.remove(v)
			e.pool.add(v)
		}
	}
	for _, v := range e.online.items {
		e.scheduleSession(v)
	}
}

// Online reports whether a node is currently online. Excluded nodes
// report their construction-time state (online).
func (e *Engine) Online(node int) bool {
	return !e.offline.has(node) && !e.pool.has(node)
}

// OnlineCount returns the number of online managed nodes.
func (e *Engine) OnlineCount() int { return e.online.len() }

// Stats returns cumulative lifecycle-event counts.
func (e *Engine) Stats() Stats { return e.stats }

// Join brings up to k random pool nodes online for the first time.
func (e *Engine) Join(k int) { e.bringOnline(k, e.pool, false) }

// Restart brings up to k random departed nodes back online.
func (e *Engine) Restart(k int) { e.bringOnline(k, e.offline, true) }

func (e *Engine) bringOnline(k int, from *indexSet, restart bool) {
	for i := 0; i < k; i++ {
		node, ok := from.random(e.rng)
		if !ok {
			return
		}
		e.join(node, restart)
	}
}

// Leave takes up to k random online nodes offline, as crashes or as
// graceful leaves.
func (e *Engine) Leave(k int, crash bool) {
	for i := 0; i < k; i++ {
		node, ok := e.online.random(e.rng)
		if !ok {
			return
		}
		e.leave(node, crash)
	}
}

// expDur draws an exponential duration with the given mean.
func (e *Engine) expDur(mean time.Duration) time.Duration {
	return time.Duration(e.rng.ExpFloat64() * float64(mean))
}

func (e *Engine) scheduleSession(node int) {
	if e.cfg.MeanSession <= 0 {
		return
	}
	g := e.gen[node]
	e.clock.After(e.expDur(e.cfg.MeanSession), func() {
		if e.gen[node] == g {
			e.leave(node, e.rng.Float64() < crashFraction)
		}
	})
}

func (e *Engine) leave(node int, crash bool) {
	e.gen[node]++
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
		g := e.gen[node]
		e.clock.After(e.expDur(e.cfg.MeanDowntime), func() {
			if e.gen[node] == g {
				e.join(node, true)
			}
		})
	}
}

func (e *Engine) join(node int, restart bool) {
	e.gen[node]++
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
