package core

import (
	"math/rand"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/blob"
	"pandas/internal/gossip"
	"pandas/internal/membership"
	"pandas/internal/obsv"
	"pandas/internal/simnet"
)

// ClusterConfig describes a simulated PANDAS deployment: N nodes plus one
// builder over the discrete-event network.
type ClusterConfig struct {
	// Core holds the protocol parameters.
	Core Config
	// N is the number of (non-builder) nodes.
	N int
	// Seed drives every random choice in the deployment.
	Seed int64
	// Latency is the propagation model; nil selects the IPFS-like
	// planetary topology.
	Latency simnet.LatencyModel
	// LossRate is the per-message drop probability in [0, 1) (the
	// paper's is simnet.DefaultLossRate).
	LossRate float64
	// DeadFraction marks this share of nodes as crashed/free-riding:
	// they receive but never respond, and the builder does not know.
	DeadFraction float64
	// OutOfViewFraction removes this share of the network from every
	// node's view (views are random per node; the builder keeps a full
	// view).
	OutOfViewFraction float64
	// BlockGossip additionally disseminates a 128 KiB block over a global
	// GossipSub-style mesh and records reception times (Fig. 9a).
	BlockGossip bool
	// VerifySeeds enables proposer-signature verification at nodes
	// (real-payload deployments).
	VerifySeeds bool
	// Churn enables dynamic membership: nodes join, leave, crash, and
	// restart while slots run; per-node views evolve through gossip
	// announcements, and a restarting node reloads its bootstrap view.
	// Peer health, which every node runs, steers fetching away from
	// departed peers. Churn is on for an active config or a scenario with
	// a lifecycle event; otherwise the deployment is static, bit-identical
	// to the fixed-membership code path. Composes with OutOfViewFraction
	// (restricted views churn) and DeadFraction (dead nodes are excluded
	// from lifecycle events).
	Churn *membership.Config
	// Adversary enables byzantine behaviors and the builder's
	// withholding. Per-node behaviors are drawn by deterministic
	// sortition from Seed; all adversarial randomness comes from
	// dedicated streams, so a nil or inactive config leaves the honest
	// deployment bit-identical.
	Adversary *adversary.Config
	// Scenario lists the run's timed events: network faults (partitions,
	// loss bursts) and lifecycle transitions (joins, restarts, leaves,
	// crashes). Each fires once, at its offset from the start of the run.
	Scenario []ScenarioEvent
}

// NodeOutcome reports one node's slot, with durations relative to the
// slot start. A negative duration means "never happened".
type NodeOutcome struct {
	Seed          time.Duration // first seed datagram: Fig. 9a's time to seeding
	Consolidation time.Duration
	Sampling      time.Duration
	BlockRecv     time.Duration // only with BlockGossip
	ConsFromSeed  time.Duration // consolidation measured from seeding
	Dead          bool
	// Offline marks nodes that were down when the slot started and never
	// joined during it; their other fields are zero values.
	Offline bool
	// JoinedAt is the node's first mid-slot (re)join, relative to slot
	// start (-1: none). Joiners start from an empty store and miss
	// seeding, so they are measured as catch-up, not deadline success.
	JoinedAt time.Duration
	// LeftAt is the node's first departure after slot start (-1: none).
	LeftAt time.Duration

	FetchMsgs  int   // queries + responses, both directions
	FetchBytes int64 // corresponding traffic volume
	// CorruptRejects counts cells rejected for failing proof verification.
	CorruptRejects int
	Rounds         []obsv.RoundStat
}

// NewNodeOutcome returns the outcome of a node for which nothing was
// observed: every duration "never happened", every count zero.
func NewNodeOutcome() NodeOutcome {
	return NodeOutcome{Seed: -1, Consolidation: -1, Sampling: -1,
		BlockRecv: -1, ConsFromSeed: -1, JoinedAt: -1, LeftAt: -1}
}

// SlotResult aggregates a full slot.
type SlotResult struct {
	Outcomes []NodeOutcome
	Seeding  SeedingReport
	// Dropped counts messages lost in the network during the slot.
	Dropped int
	// Churn counts the lifecycle events that fired during this slot
	// (zero without dynamic membership).
	Churn membership.Stats
}

// Cluster is a simulated deployment.
type Cluster struct {
	cfg     ClusterConfig
	net     *simnet.Network
	table   *Table
	nodes   []*Node
	builder *Builder

	overlay   *gossip.Overlay
	routers   []*gossip.Router
	blockRecv []time.Duration
	dead      []bool

	// views holds each node's view (nil when every view is full and
	// static).
	views []*membership.PeerView
	// Dynamic membership (nil/empty without it). The engine owns who is
	// online; builderView is who the builder believes online, which a
	// crash, being unannounced, leaves in it.
	engine      *membership.Engine
	builderView *membership.PeerView
	annOverlay  *gossip.Overlay
	annRouters  []*gossip.Router
	annSeq      uint64
	curSlot     uint64
	started     []bool
	joinedAt    []time.Duration
	leftAt      []time.Duration
	churnPrev   membership.Stats

	// Adversary subsystem (inert without ClusterConfig.Adversary).
	behaviors []adversary.Behavior
	agents    []*adversary.Agent

	// Scenario windows. partitioned counts, per node, the open partition
	// windows that isolate it (all zero outside them); partCount tracks
	// how many are non-zero so the per-message link filter is one
	// comparison in the common case. lossBase is the configured loss
	// rate; burstOpen marks, per scenario event, an open loss burst.
	partRng     *rand.Rand
	partitioned []int
	partCount   int
	lossBase    float64
	burstOpen   []bool

	// Tracing (nil without Core.Recorder).
	rec obsv.Recorder

	// msgs is the fetch-message free list every node sends from; dispatch
	// releases each query and response into it once handled.
	msgs *msgPool
}

// NewCluster builds the deployment: identities, epoch table, simulator
// wiring, fault injection, and optionally the block gossip overlay.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	d, err := NewDeployment(cc.Core, cc.Seed, cc.N)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cc,
		table: d.Table,
		dead:  make([]bool, cc.N),
		rec:   cc.Core.Recorder,
		msgs:  &msgPool{},
	}
	net, err := NewNetwork(cc, c.dispatch)
	if err != nil {
		return nil, err
	}
	c.net = net

	// Adversary sortition happens before the nodes are built because each
	// byzantine node's transport is wrapped at construction. It draws
	// from dedicated seed streams only, so the deployment's stream — and
	// therefore every honest random choice below — is untouched whether or
	// not adversaries are enabled.
	if err := cc.Adversary.Validate(); err != nil {
		return nil, err
	}
	if err := validateScenario(cc.Scenario, cc.N); err != nil {
		return nil, err
	}
	c.behaviors = cc.Adversary.Sortition(cc.Seed, cc.N)
	c.agents = make([]*adversary.Agent, cc.N)
	for i := range c.agents {
		c.agents[i] = adversary.NewAgent(i, c.behaviors[i], cc.Seed)
	}

	c.nodes = make([]*Node, cc.N)
	c.blockRecv = make([]time.Duration, cc.N)
	for i := range c.nodes {
		c.nodes[i] = d.NewNode(i, c.agents[i].WrapTransport(net.Endpoint(i)))
		c.nodes[i].msgs = c.msgs
		if cc.VerifySeeds {
			c.nodes[i].SetSeedVerification(d.Proposer.Public)
		}
	}
	c.builder = d.NewBuilder(net.Endpoint(cc.N))

	// Fault injection: dead nodes.
	rng := d.Rand
	if cc.DeadFraction > 0 {
		count := int(float64(cc.N) * cc.DeadFraction)
		for _, i := range rng.Perm(cc.N)[:count] {
			c.dead[i] = true
			if err := net.SetDead(i, true); err != nil {
				return nil, err
			}
		}
	}
	// Membership is dynamic under an active churn config or a scenario
	// that moves nodes in or out of the network.
	dynamic, joins := lifecycleEvents(cc.Scenario)
	dynamic = dynamic || cc.Churn.Active()
	// Fault injection: incomplete views. Each node draws a random share
	// (1 - f) of the network into its view; the builder keeps its full
	// view. Dynamic membership (below) evolves the SAME views through
	// announcements, so the two fault models compose. A drawn view is a
	// per-pair hash against a threshold, O(1) per node whatever N is
	// (DESIGN.md §8 decision 10), and draws nothing from the deployment's
	// stream.
	if cc.OutOfViewFraction > 0 || dynamic {
		keep := float64(cc.N-int(float64(cc.N)*cc.OutOfViewFraction)) / float64(cc.N)
		c.views = make([]*membership.PeerView, cc.N)
		for i := range c.views {
			c.views[i] = membership.NewPeerView(uint64(cc.Seed)^0x76696577, i, keep)
			c.nodes[i].SetView(c.views[i])
		}
	}

	// Block dissemination mesh over all nodes.
	if cc.BlockGossip {
		members := make([]int, cc.N)
		for i := range members {
			members[i] = i
		}
		c.overlay = gossip.NewOverlay(rng, members, gossip.DefaultDegree)
		c.routers = make([]*gossip.Router, cc.N)
		for i := range c.routers {
			c.routers[i] = gossip.NewRouter(i)
		}
	}

	// Dynamic membership. Set up strictly AFTER every consumer of the
	// deployment's rng above, and from independent rand sources, so an
	// inactive (or absent) churn config leaves the static deployment
	// bit-identical.
	if dynamic {
		if err := c.setupChurn(cc, joins); err != nil {
			return nil, err
		}
	}
	c.setupScenario(cc)
	// The builder's one attack: withhold the maximal unrecoverable square.
	if cc.Adversary != nil && cc.Adversary.Withhold {
		n := cc.Core.Blob.N()
		c.builder.SetWithholding(func(id blob.CellID) bool { return blob.Withheld(n, id) })
	}
	return c, nil
}

// blockSize is the size in bytes of the block BlockGossip disseminates.
const blockSize = 128 * 1024

// setupChurn wires the dynamic-membership subsystem: the lifecycle
// engine, per-node evolving views and the announcement gossip mesh. The
// engine holds nodes out of the network for the scenario's Join events.
func (c *Cluster) setupChurn(cc ClusterConfig, joins int) error {
	n := cc.N
	var churn membership.Config
	if cc.Churn != nil {
		churn = *cc.Churn
	}
	// The builder seeds its BELIEVED membership: graceful leavers are
	// announced and drop out of it; crashed nodes stay believed-online
	// and keep receiving (wasted) seed traffic until they return.
	c.builderView = membership.NewPeerView(0, n, 1)
	c.builder.SetView(c.builderView)
	c.started = make([]bool, n)
	c.joinedAt = make([]time.Duration, n)
	c.leftAt = make([]time.Duration, n)

	// Join/leave announcements ride their own gossip mesh with their own
	// routers: unlike block routers these are NEVER reset per slot —
	// membership state outlives slot boundaries.
	annRng := rand.New(rand.NewSource(cc.Seed ^ 0x616e6e))
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	c.annOverlay = gossip.NewOverlay(annRng, members, gossip.DefaultDegree)
	c.annRouters = make([]*gossip.Router, n)
	for i := range c.annRouters {
		c.annRouters[i] = gossip.NewRouter(i)
	}

	churnRng := rand.New(rand.NewSource(cc.Seed ^ 0x6368726e))
	c.engine = membership.NewEngine(churn, c.net, churnRng, n, membership.Hooks{
		OnJoin:  c.onChurnJoin,
		OnLeave: c.onChurnLeave,
	})
	// DeadFraction nodes belong to the fault model, not the churn model:
	// they stay dead forever and never emit lifecycle events.
	for i, d := range c.dead {
		if d {
			c.engine.Exclude(i)
		}
	}
	c.engine.Start(joins)

	// Nodes held out for later joins have never been online: the builder
	// does not know them, peers' views exclude them, and the simulator
	// treats them as absent until their join fires.
	for i := 0; i < n; i++ {
		if c.engine.Online(i) {
			continue
		}
		c.builderView.Remove(i)
		if err := c.net.SetDead(i, true); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if j != i {
				c.views[j].Remove(i)
			}
		}
	}
	return nil
}

// annMsg is one join/leave announcement frame on the membership mesh.
type annMsg struct {
	id  gossip.MsgID
	ann membership.Announcement
}

// publishAnnouncement floods a membership change from the subject node.
func (c *Cluster) publishAnnouncement(node int, join bool) {
	c.annSeq++
	m := annMsg{
		id:  gossip.MsgID(c.annSeq),
		ann: membership.Announcement{Seq: c.annSeq, Node: node, Join: join},
	}
	for _, peer := range c.annRouters[node].Publish(c.annOverlay, m.id) {
		c.net.Send(node, peer, membership.AnnouncementWireSize, m)
	}
}

func (c *Cluster) onAnnouncement(node, from, size int, m annMsg) {
	fwd, isNew := c.annRouters[node].Receive(c.annOverlay, m.id, from)
	if !isNew {
		return
	}
	if m.ann.Node != node {
		if m.ann.Join {
			c.views[node].Add(m.ann.Node)
		} else {
			c.views[node].Remove(m.ann.Node)
		}
	}
	for _, peer := range fwd {
		c.net.Send(node, peer, size, m)
	}
}

// onChurnJoin brings a node online mid-run: fresh joiners and restarting
// crashers alike start the current slot from an empty store and announce
// themselves. A restarting node also reloads its bootstrap view, as a
// client reloads the peer table it persists across restarts: every peer
// drawn into its view is back in it, beside the joiners it has learned
// of, and peer health backs off the ones that are gone.
func (c *Cluster) onChurnJoin(node int, restart bool) {
	if err := c.net.SetDead(node, false); err != nil {
		return
	}
	if c.rec != nil {
		op := obsv.ChurnJoin
		if restart {
			op = obsv.ChurnRestart
		}
		c.rec.Record(obsv.Event{At: c.net.Now(), Slot: c.curSlot,
			Kind: obsv.KindChurnEvent, Node: int32(node), Peer: -1,
			Aux: int64(op)})
	}
	c.builderView.Add(node)
	if c.joinedAt[node] < 0 {
		c.joinedAt[node] = c.net.Now()
	}
	if restart {
		c.views[node].Reload()
	}
	c.nodes[node].JoinSlot(c.curSlot)
	c.started[node] = true
	c.publishAnnouncement(node, true)
}

// onChurnLeave takes a node offline. Graceful leavers announce their
// departure first, so peers prune them; crashers vanish silently and
// stay in every view — only peer health's backoff steers traffic off
// them.
func (c *Cluster) onChurnLeave(node int, crash bool) {
	if c.leftAt[node] < 0 {
		c.leftAt[node] = c.net.Now()
	}
	if c.rec != nil {
		op := obsv.ChurnLeave
		if crash {
			op = obsv.ChurnCrash
		}
		c.rec.Record(obsv.Event{At: c.net.Now(), Slot: c.curSlot,
			Kind: obsv.KindChurnEvent, Node: int32(node), Peer: -1,
			Aux: int64(op)})
	}
	if !crash {
		c.publishAnnouncement(node, false)
		c.builderView.Remove(node)
	}
	_ = c.net.SetDead(node, true)
	c.nodes[node].Stop()
}

// dispatch routes payloads at a node: PANDAS protocol messages to the
// Node, gossip frames to the block router, announcements to the
// membership mesh. A query or response is the free list's again once the
// node has handled it.
func (c *Cluster) dispatch(node, from, size int, payload any) {
	if id, ok := payload.(gossip.MsgID); ok {
		c.onBlockGossip(node, from, size, id)
		return
	}
	if m, ok := payload.(annMsg); ok {
		c.onAnnouncement(node, from, size, m)
		return
	}
	c.nodes[node].HandleMessage(from, size, payload)
	c.msgs.release(payload)
}

func (c *Cluster) onBlockGossip(node, from, size int, id gossip.MsgID) {
	if c.routers == nil {
		return
	}
	fwd, isNew := c.routers[node].Receive(c.overlay, id, from)
	if !isNew {
		return
	}
	if c.rec != nil {
		c.rec.Record(obsv.Event{At: c.net.Now(), Slot: c.curSlot,
			Kind: obsv.KindGossipMsg, Node: int32(node), Peer: int32(from),
			Bytes: int64(size)})
	}
	if c.blockRecv[node] < 0 {
		c.blockRecv[node] = c.net.Now()
	}
	for _, peer := range fwd {
		c.net.Send(node, peer, size, id)
	}
}

// Table exposes the epoch table.
func (c *Cluster) Table() *Table { return c.table }

// Builder exposes the builder (to set withholding, views, or real blobs).
func (c *Cluster) Builder() *Builder { return c.builder }

// Nodes exposes the node list.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Network exposes the simulator (for custom drivers).
func (c *Cluster) Network() *simnet.Network { return c.net }

// Engine exposes the churn engine (nil without dynamic membership).
func (c *Cluster) Engine() *membership.Engine { return c.engine }

// Behaviors returns the per-node adversary sortition (all Honest without
// an adversary config). Indexed by node.
func (c *Cluster) Behaviors() []adversary.Behavior { return c.behaviors }

// Agents returns the per-node adversary agents (honest agents for honest
// nodes). Indexed by node.
func (c *Cluster) Agents() []*adversary.Agent { return c.agents }

// RunSlot simulates one full slot: the proposer selects the builder at
// slot start, the builder seeds, nodes consolidate and sample. The
// simulation runs for a full 12 s slot so that stragglers past the 4 s
// deadline are still measured (as in Fig. 11).
func (c *Cluster) RunSlot(slot uint64) (*SlotResult, error) {
	start := c.net.Now()
	droppedBefore := c.net.Dropped()
	c.curSlot = slot
	for i, n := range c.nodes {
		c.blockRecv[i] = -1
		if c.engine != nil {
			c.joinedAt[i] = -1
			c.leftAt[i] = -1
			c.started[i] = c.engine.Online(i)
			if !c.started[i] {
				// Offline at slot start: the node joins the slot mid-way
				// if and when its join event fires.
				continue
			}
		}
		if c.dead[i] {
			// A dead node runs nothing: the network drops what it sends
			// before any counter or loss draw and never hands it what
			// arrives, so its rounds would be timers that nothing reads.
			continue
		}
		n.StartSlot(slot)
	}
	if c.routers != nil {
		for _, r := range c.routers {
			r.Reset()
		}
	}

	// t=0: proposer instructs the builder to seed, and (optionally)
	// publishes the block via gossip from a random well-known node.
	var report SeedingReport
	c.net.After(0, func() {
		report = c.builder.SeedSlot(slot)
	})
	if c.overlay != nil {
		origin := int(slot) % len(c.nodes)
		c.net.After(0, func() {
			if c.blockRecv[origin] < 0 {
				c.blockRecv[origin] = c.net.Now()
			}
			id := gossip.MsgID(slot + 1)
			for _, peer := range c.routers[origin].Publish(c.overlay, id) {
				c.net.Send(origin, peer, blockSize, id)
			}
		})
	}
	c.net.Run(start + SlotDuration)

	res := &SlotResult{Seeding: report, Dropped: c.net.Dropped() - droppedBefore}
	if c.engine != nil {
		st := c.engine.Stats()
		res.Churn = st.Minus(c.churnPrev)
		c.churnPrev = st
	}
	res.Outcomes = make([]NodeOutcome, len(c.nodes))
	for i := range c.nodes {
		res.Outcomes[i] = c.nodeOutcome(i, start)
	}
	return res, nil
}

// nodeOutcome is node i's Node.Outcome plus the cluster's own lifecycle
// and block-gossip bookkeeping.
func (c *Cluster) nodeOutcome(i int, start time.Duration) NodeOutcome {
	o := NewNodeOutcome()
	// An offline node never ran this slot; its view holds stale leftovers
	// from its last active slot.
	offline := c.engine != nil && !c.started[i]
	if !offline {
		o = c.nodes[i].Outcome(start)
		if c.blockRecv[i] >= 0 {
			o.BlockRecv = c.blockRecv[i] - start
		}
	}
	o.Dead = c.dead[i]
	if c.engine != nil {
		o.Offline = offline
		if c.joinedAt[i] >= 0 {
			o.JoinedAt = c.joinedAt[i] - start
		}
		if c.leftAt[i] >= 0 {
			o.LeftAt = c.leftAt[i] - start
		}
	}
	return o
}

// EligibleAt reports whether the node counts toward the deadline-success
// denominator: it must have been up when the slot started (so seeding
// could reach it) and still be up at the deadline. Mid-slot joiners are
// excluded — they miss seeding by construction and are measured as
// catch-up instead (JoinerCatchUp).
func (o NodeOutcome) EligibleAt(deadline time.Duration) bool {
	if o.Dead || o.Offline || o.JoinedAt >= 0 {
		return false
	}
	return o.LeftAt < 0 || o.LeftAt > deadline
}

// DeadlineRate returns the fraction of eligible nodes that completed
// sampling within the deadline. Without churn every live node is
// eligible, which reduces to the paper's Fig. 15 metric.
func (r *SlotResult) DeadlineRate(deadline time.Duration) float64 {
	live, ok := 0, 0
	for _, o := range r.Outcomes {
		if !o.EligibleAt(deadline) {
			continue
		}
		live++
		if o.Sampling >= 0 && o.Sampling <= deadline {
			ok++
		}
	}
	if live == 0 {
		return 0
	}
	return float64(ok) / float64(live)
}

// JoinerCatchUp reports how mid-slot joiners fared: the number that
// joined and, of those, the number that still completed sampling before
// the slot ended (from an empty store, without seeding).
func (r *SlotResult) JoinerCatchUp() (joined, sampled int) {
	for _, o := range r.Outcomes {
		if o.JoinedAt < 0 {
			continue
		}
		joined++
		if o.Sampling >= 0 {
			sampled++
		}
	}
	return joined, sampled
}
