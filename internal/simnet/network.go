package simnet

import (
	"errors"
	"fmt"
	"time"
)

// Common bandwidth figures (bits per second) from the paper's testbed.
const (
	// NodeBandwidth is the per-node connection cap (25 Mbps).
	NodeBandwidth = 25_000_000
	// BuilderBandwidth is the builder's cloud uplink (10 Gbps).
	BuilderBandwidth = 10_000_000_000
	// DefaultLossRate is the UDP packet loss observed in the paper's
	// cluster.
	DefaultLossRate = 0.03
)

// Errors returned by the network.
var ErrUnknownNode = errors.New("simnet: unknown node index")

// LatencyModel yields the one-way propagation delay between two nodes.
type LatencyModel interface {
	Delay(from, to int) time.Duration
}

// ConstantLatency is the simplest latency model: the same one-way delay
// for every pair.
type ConstantLatency time.Duration

// Delay implements LatencyModel.
func (c ConstantLatency) Delay(from, to int) time.Duration { return time.Duration(c) }

// Handler receives delivered messages. from is the sender's node index,
// size the wire size in bytes. Payloads are shared by reference: handlers
// must not mutate them.
type Handler func(from int, size int, payload any)

// NodeStats accumulates per-node traffic counters.
type NodeStats struct {
	MsgsSent  int
	MsgsRecv  int
	BytesSent int64
	BytesRecv int64
	MsgsLost  int // messages sent by this node that the network dropped
}

// TotalBytes returns traffic volume summed over both directions, the
// quantity plotted in Fig. 10 / Fig. 13c of the paper.
func (s NodeStats) TotalBytes() int64 { return s.BytesSent + s.BytesRecv }

// TotalMsgs returns messages summed over both directions.
func (s NodeStats) TotalMsgs() int { return s.MsgsSent + s.MsgsRecv }

// Config parameterizes a Network.
type Config struct {
	// Latency provides propagation delays; required.
	Latency LatencyModel
	// LossRate is the independent drop probability per message.
	LossRate float64
	// Seed drives all the network's randomness.
	Seed int64
	// MinDelay bounds the smallest propagation delay (packets never
	// arrive instantaneously, even loopback); optional.
	MinDelay time.Duration
}

// Network simulates message exchange among indexed nodes over the engine.
type Network struct {
	engine  *Engine
	cfg     Config
	nodes   []nodeState
	dropped int

	// msgs is the slab of messages in flight, one slot per message from
	// its send to its delivery; free lists the slots deliveries vacated,
	// reused first.
	msgs []inflight
	free []int32

	// linkFilter, when non-nil, vetoes individual links: a true return
	// drops the message (after the sender's uplink is charged — the bytes
	// were transmitted into a black hole). Used by fault injection to
	// model partitions.
	linkFilter func(from, to int) bool
}

// inflight is one message between its send and its delivery. Its event
// fires twice: at arrival it queues for the receiver's downlink, and once
// through the downlink it is delivered. The receiver is looked up by index
// at each stage, so a node added meanwhile (which moves Network.nodes)
// cannot strand the delivery in a stale copy.
type inflight struct {
	payload    any
	from, to   int32
	size       int
	inDownlink bool // the message has arrived and is being received
}

type nodeState struct {
	handler    Handler
	upBps      float64
	downBps    float64
	uplinkFree time.Duration
	downFree   time.Duration
	stats      NodeStats
	dead       bool
}

// New creates an empty network. Config.Latency must be non-nil.
func New(cfg Config) (*Network, error) {
	if cfg.Latency == nil {
		return nil, errors.New("simnet: config requires a latency model")
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("simnet: loss rate %v out of [0,1)", cfg.LossRate)
	}
	n := &Network{engine: NewEngine(cfg.Seed), cfg: cfg}
	n.engine.net = n
	return n, nil
}

// Engine returns the underlying event engine (for timers).
func (n *Network) Engine() *Engine { return n.engine }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.engine.Now() }

// After schedules a callback; sugar for Engine().After.
func (n *Network) After(d time.Duration, fn func()) { n.engine.After(d, fn) }

// Run drives the simulation; sugar for Engine().Run.
func (n *Network) Run(until time.Duration) int { return n.engine.Run(until) }

// AddNode registers a node with the given bandwidth caps (bits/second)
// and returns its index. A nil handler discards deliveries.
func (n *Network) AddNode(h Handler, upBps, downBps float64) int {
	n.nodes = append(n.nodes, nodeState{handler: h, upBps: upBps, downBps: downBps})
	return len(n.nodes) - 1
}

// SetHandler replaces a node's message handler.
func (n *Network) SetHandler(idx int, h Handler) error {
	if idx < 0 || idx >= len(n.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, idx)
	}
	n.nodes[idx].handler = h
	return nil
}

// SetDead marks a node as crashed/free-riding: it still receives bytes
// (the network cannot know) but its handler is never invoked, and it
// sends nothing. Used for the paper's dead-node fault experiments.
func (n *Network) SetDead(idx int, dead bool) error {
	if idx < 0 || idx >= len(n.nodes) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, idx)
	}
	n.nodes[idx].dead = dead
	return nil
}

// IsDead reports the dead flag.
func (n *Network) IsDead(idx int) bool {
	return idx >= 0 && idx < len(n.nodes) && n.nodes[idx].dead
}

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Stats returns a copy of the node's traffic counters.
func (n *Network) Stats(idx int) NodeStats {
	if idx < 0 || idx >= len(n.nodes) {
		return NodeStats{}
	}
	return n.nodes[idx].stats
}

// ResetStats zeroes traffic counters for all nodes (between slots).
func (n *Network) ResetStats() {
	for i := range n.nodes {
		n.nodes[i].stats = NodeStats{}
	}
}

// Dropped returns the total number of messages lost in transit.
func (n *Network) Dropped() int { return n.dropped }

// PeakInFlight returns the most messages in flight at once since creation:
// the message slab only grows, so its length is the high-water mark.
func (n *Network) PeakInFlight() int { return len(n.msgs) }

// LossRate returns the current random-loss probability.
func (n *Network) LossRate() float64 { return n.cfg.LossRate }

// SetLossRate changes the random-loss probability mid-run (fault
// injection: loss bursts raise it for a window, then restore the
// baseline). Out-of-range values are clamped to [0, 1).
func (n *Network) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate >= 1 {
		rate = 0.999999
	}
	n.cfg.LossRate = rate
}

// SetLinkFilter installs (or, with nil, removes) a per-link veto: f is
// consulted for every lossy or reliable send, and a true return drops
// the message after uplink accounting — partitioned traffic still costs
// the sender bandwidth. Fault injection uses this to model network
// partitions; the filter must be deterministic for reproducible runs.
func (n *Network) SetLinkFilter(f func(from, to int) bool) {
	n.linkFilter = f
}

// Send transmits size bytes of payload from one node to another. The
// message occupies the sender's uplink (store-and-forward), propagates
// with the model's delay, then occupies the receiver's downlink. It may
// be silently lost. Sending from a dead node is a no-op, as is sending to
// an unknown index.
func (n *Network) Send(from, to, size int, payload any) {
	n.send(from, to, size, payload, true)
}

// SendReliable is Send without the random loss. The paper's testbed
// observed its 3% UDP loss under many-to-many fetch congestion; the
// builder's dedicated seeding path (one sender on a 10 Gbps cloud uplink)
// delivered in full — its Fig. 9a seeding CDF reaches every node. Seeding
// therefore uses this path; all peer-to-peer fetch traffic uses Send.
func (n *Network) SendReliable(from, to, size int, payload any) {
	n.send(from, to, size, payload, false)
}

func (n *Network) send(from, to, size int, payload any, lossy bool) {
	if from < 0 || from >= len(n.nodes) || to < 0 || to >= len(n.nodes) {
		return
	}
	sender := &n.nodes[from]
	if sender.dead {
		return
	}
	now := n.engine.Now()
	sender.stats.MsgsSent++
	sender.stats.BytesSent += int64(size)

	// Uplink serialization: transmission begins when the link frees up.
	txTime := transferTime(size, sender.upBps)
	start := max(now, sender.uplinkFree)
	sender.uplinkFree = start + txTime

	// A partition cut drops the message outright — before the loss draw,
	// so the rng stream is untouched by messages that could never arrive.
	// Reliable sends are cut too: no transport crosses a partition.
	if n.linkFilter != nil && n.linkFilter(from, to) {
		sender.stats.MsgsLost++
		n.dropped++
		return
	}

	// Loss is decided up front (deterministic given the seed) but the
	// uplink capacity is still consumed — the sender paid for the bytes.
	if lossy && n.cfg.LossRate > 0 && n.engine.rng.Float64() < n.cfg.LossRate {
		sender.stats.MsgsLost++
		n.dropped++
		return
	}

	prop := n.cfg.Latency.Delay(from, to)
	if prop < n.cfg.MinDelay {
		prop = n.cfg.MinDelay
	}
	arrive := start + txTime + prop

	var i int32
	if k := len(n.free); k > 0 {
		i = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		i = int32(len(n.msgs))
		n.msgs = append(n.msgs, inflight{})
	}
	n.msgs[i] = inflight{payload: payload, from: int32(from), to: int32(to), size: size}
	n.engine.schedule(event{at: arrive, msg: i + 1})
}

// step runs message i's event: at arrival the message occupies the
// receiver's downlink, and the same event is queued for when it is
// through; at delivery the slot is freed and the handler called.
func (n *Network) step(i int32) {
	m := &n.msgs[i]
	recv := &n.nodes[m.to]
	if !m.inDownlink {
		rxTime := transferTime(m.size, recv.downBps)
		rxStart := max(n.engine.Now(), recv.downFree)
		recv.downFree = rxStart + rxTime
		m.inDownlink = true
		n.engine.schedule(event{at: rxStart + rxTime, msg: i + 1})
		return
	}
	from, size, payload := int(m.from), m.size, m.payload
	*m = inflight{}
	n.free = append(n.free, i)
	recv.stats.MsgsRecv++
	recv.stats.BytesRecv += int64(size)
	if recv.dead || recv.handler == nil {
		return
	}
	recv.handler(from, size, payload)
}

// Endpoint is one node's handle on the network: the transport value the
// protocol layers (core.Transport, dht.Transport) are written against.
type Endpoint struct {
	net  *Network
	self int
}

// Endpoint returns node i's transport handle.
func (n *Network) Endpoint(i int) Endpoint { return Endpoint{net: n, self: i} }

// Send is Network.Send from this node (lossy).
func (e Endpoint) Send(to, size int, payload any) { e.net.Send(e.self, to, size, payload) }

// SendReliable is Network.SendReliable from this node (no random loss).
func (e Endpoint) SendReliable(to, size int, payload any) {
	e.net.SendReliable(e.self, to, size, payload)
}

// After schedules a callback on the network's virtual clock.
func (e Endpoint) After(d time.Duration, fn func()) { e.net.After(d, fn) }

// Now returns the current virtual time.
func (e Endpoint) Now() time.Duration { return e.net.Now() }

// transferTime converts a byte count and a bandwidth (bits/s) into a
// duration. Zero or negative bandwidth means "infinite".
func transferTime(size int, bps float64) time.Duration {
	if bps <= 0 {
		return 0
	}
	seconds := float64(size*8) / bps
	return time.Duration(seconds * float64(time.Second))
}
