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
// flight. Events are stored by value inside the heap's backing array:
// scheduling never allocates a per-event object, and popped slots are
// reused for later pushes (the backing array acts as the event pool).
// A message event carries no closure, only its slot in the network's
// in-flight slab, so a message allocates nothing between send and
// delivery.
type event struct {
	at  time.Duration
	seq uint64 // tie-break for equal times: FIFO
	fn  func() // a timer's callback
	msg int32  // 0 for a timer; for a message, 1 + its slot in Network.msgs
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). A 4-ary
// layout halves the tree depth of a binary heap and keeps a node's
// children adjacent in memory.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
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
func (h *eventHeap) pop() event {
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

// Engine is the discrete-event core: a virtual clock and one event heap.
// It is not safe for concurrent use; all callbacks run on the caller's
// goroutine inside Run.
type Engine struct {
	now      time.Duration
	seq      uint64
	executed uint64
	queue    eventHeap
	// rng draws the network's message losses.
	rng *rand.Rand
	// net runs the message events; nil for an engine without a network.
	net *Network
}

// NewEngine creates an engine with a deterministic random source.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn at absolute virtual time t. Times in the past run at the
// current time (never before).
func (e *Engine) At(t time.Duration, fn func()) { e.schedule(event{at: t, fn: fn}) }

// schedule queues ev, clamped to now, with the next sequence number.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

// After schedules fn delay after the current virtual time.
func (e *Engine) After(delay time.Duration, fn func()) {
	e.At(e.now+delay, fn)
}

// Run executes events in (at, seq) order until the queue is empty or the
// next event is later than until. It returns the number of events run.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for len(e.queue) > 0 && e.queue[0].at <= until {
		ev := e.queue.pop()
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
func (e *Engine) Pending() int { return len(e.queue) }

// Executed returns the total number of events run since creation.
func (e *Engine) Executed() uint64 { return e.executed }
