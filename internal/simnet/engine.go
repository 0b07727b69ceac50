// Package simnet is a deterministic discrete-event network simulator.
//
// It plays the role of the paper's two evaluation substrates at once: the
// 80-server cluster with tc-emulated WAN latencies (for 1,000 nodes) and
// the PeerSim simulator (up to 20,000 nodes). A single-threaded event loop
// over a virtual clock delivers messages with
//
//	delay = uplink queueing + transmission + propagation +
//	        downlink queueing + reception
//
// where transmission/reception times derive from per-node bandwidth caps
// (25 Mbps for ordinary nodes, 10 Gbps for the builder, as in the paper)
// and propagation comes from an all-pairs latency model (package latency).
// Messages are independently lost with a configurable probability (3% in
// the paper's testbed). All randomness is drawn from a seeded generator,
// so runs are exactly reproducible.
package simnet

import (
	"math/rand"
	"time"
)

// event is a scheduled timer callback or one stage of a message in
// flight. Events are stored by value inside the shard heaps' backing
// arrays: scheduling never allocates a per-event object, and popped slots
// are reused for later pushes (the backing arrays act as the event pool).
// A message event carries no closure, only its slot in the network's
// in-flight slab, so a message allocates nothing between send and
// delivery.
type event struct {
	at  time.Duration
	seq uint64 // tie-break for equal times: FIFO
	fn  func() // a timer's callback
	msg int32  // 0 for a timer; for a message, 1 + its slot in Network.msgs
}

// The event queue is sharded by time band so that each push/pop works on
// a short heap: events whose timestamps fall in the same bandWidth-sized
// window share a shard, and consecutive windows round-robin across the
// shards. Simulation load is dominated by message deliveries spread over
// a few hundred milliseconds of virtual time, so banding spreads the
// queue roughly evenly and cuts the sift depth by ~log2(numShards)
// compared to one big heap.
const (
	numShards = 8
	// bandBits selects ~4.2ms bands (time.Duration is in nanoseconds).
	bandBits = 22
)

// eventShard is a 4-ary min-heap of events ordered by (at, seq). A 4-ary
// layout halves the tree depth of a binary heap and keeps children of a
// node in one cache line, which profiles faster for the short
// value-struct heaps used here.
type eventShard []event

func (h eventShard) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventShard) push(ev event) {
	s := *h
	s = append(s, ev)
	// Sift up.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the minimum event. The vacated tail slot keeps
// its backing storage but drops the closure reference so the GC can
// collect executed callbacks.
func (h *eventShard) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(c, min) {
				min = c
			}
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

// shardFor maps a timestamp to its time-band shard.
func shardFor(at time.Duration) int {
	return int(uint64(at)>>bandBits) % numShards
}

// Engine is the discrete-event core: a virtual clock and a sharded event
// queue. It is not safe for concurrent use; all callbacks run on the
// caller's goroutine inside Run.
type Engine struct {
	now      time.Duration
	seq      uint64
	executed uint64
	pending  int
	shards   [numShards]eventShard
	rng      *rand.Rand
	// net runs the message events; nil for an engine without a network.
	net *Network
}

// NewEngine creates an engine with a deterministic random source.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute virtual time t. Times in the past run at the
// current time (never before).
func (e *Engine) At(t time.Duration, fn func()) { e.schedule(event{at: t, fn: fn}) }

// schedule queues ev, clamped to now, with the next sequence number.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	e.pending++
	ev.seq = e.seq
	e.shards[shardFor(ev.at)].push(ev)
}

// After schedules fn delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func()) {
	e.At(e.now+delay, fn)
}

// peekShard returns the shard index holding the globally minimum (at,
// seq) event, or -1 when the queue is empty. Sequence numbers are unique,
// so the (at, seq) order across shards is total and matches the single
// heap exactly.
func (e *Engine) peekShard() int {
	best := -1
	for i := range e.shards {
		s := e.shards[i]
		if len(s) == 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := e.shards[best]
		if s[0].at < b[0].at || (s[0].at == b[0].at && s[0].seq < b[0].seq) {
			best = i
		}
	}
	return best
}

// Run executes events in timestamp order until the queue is empty or the
// next event is later than until. It returns the number of events run.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for {
		i := e.peekShard()
		if i < 0 || e.shards[i][0].at > until {
			break
		}
		ev := e.shards[i].pop()
		e.pending--
		e.now = ev.at
		if ev.msg == 0 {
			ev.fn()
		} else {
			e.net.step(ev.msg - 1)
		}
		n++
	}
	e.executed += uint64(n)
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.pending }

// Executed returns the total number of events run since creation; the
// scale experiments divide it by wall-clock time for events/sec.
func (e *Engine) Executed() uint64 { return e.executed }
