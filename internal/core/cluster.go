package core

import (
	"math/rand"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/dht"
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
	// LossRate is the per-message drop probability (3% default when
	// negative).
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
	// announcements and periodic DHT crawls; and peer-liveness scoring
	// steers fetching away from departed peers. A nil or inactive config
	// keeps the static deployment, bit-identical to the fixed-membership
	// code path. Composes with OutOfViewFraction (restricted views churn)
	// and DeadFraction (dead nodes are excluded from lifecycle events).
	Churn *membership.Config
	// Adversary enables byzantine behaviors, builder attacks, and
	// scheduled network faults. Per-node behaviors are drawn by
	// deterministic sortition from Seed; all adversarial randomness comes
	// from dedicated streams, so a nil or inactive config leaves the
	// honest deployment bit-identical. View-poisoner behavior requires
	// Churn (it rides the membership announcement mesh) and is a no-op
	// without it.
	Adversary *adversary.Config
}

// NodeOutcome reports one node's slot, with durations relative to the
// slot start. A negative duration means "never happened".
type NodeOutcome struct {
	Seed          time.Duration // last seed datagram
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
	Rounds     []RoundStat
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
	// BuilderBytes is the builder's total sent volume (seeding).
	BuilderBytes int64
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

	// Dynamic membership (nil/empty without ClusterConfig.Churn).
	dir        *membership.Directory
	engine     *membership.Engine
	views      []*membership.LiveView
	scorers    []*membership.Scorer
	dhtPeers   []*dht.Peer
	refreshers []*membership.Refresher
	annOverlay *gossip.Overlay
	annRouters []*gossip.Router
	annSeq     uint64
	curSlot    uint64
	started    []bool
	joinedAt   []time.Duration
	leftAt     []time.Duration
	churnPrev  membership.Stats

	// Adversary subsystem (inert without ClusterConfig.Adversary).
	behaviors []adversary.Behavior
	agents    []*adversary.Agent
	seedDelay time.Duration
	advRng    *rand.Rand
	// partitioned flags nodes inside the current partition window (empty
	// outside fault windows); partCount tracks how many are set so the
	// per-message link filter is one comparison in the common case.
	partitioned []bool
	partCount   int
	departed    map[int]bool

	// Observability (nil without Core.Recorder / Core.Metrics).
	rec        obsv.Recorder
	mGossip    *obsv.Counter
	mGossipDup *obsv.Counter
	mAnn       *obsv.Counter
	mDHT       *obsv.Counter
	mPoison    *obsv.Counter
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
	}
	net, err := NewNetwork(cc, c.dispatch)
	if err != nil {
		return nil, err
	}
	c.net = net
	if reg := cc.Core.Metrics; reg != nil {
		net.SetMetrics(reg)
		c.mGossip = reg.Counter("gossip_msgs_total")
		c.mGossipDup = reg.Counter("gossip_duplicates_total")
		c.mAnn = reg.Counter("membership_announcements_total")
		c.mDHT = reg.Counter("dht_msgs_total")
	}

	// Adversary sortition happens before the nodes are built because each
	// byzantine node's transport is wrapped at construction. It draws
	// from dedicated seed streams only, so the deployment's stream — and
	// therefore every honest random choice below — is untouched whether or
	// not adversaries are enabled.
	if err := cc.Adversary.Validate(); err != nil {
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
	// Fault injection: incomplete views. Each node knows a random
	// (1 - f) subset of the network; the builder keeps its full view.
	// Views are LiveViews rather than fixed predicates so that dynamic
	// membership (below) can evolve the SAME view a node already has —
	// the two fault models compose instead of overwriting each other.
	//
	// At compactViewThreshold nodes and beyond, static deployments switch
	// to membership.SampledView: materializing N LiveViews of (1-f)N
	// entries each is O(N²) memory and rng time, which is exactly what
	// caps the paper's PeerSim runs at 20k nodes. The sampled views keep
	// the same marginal statistics (each peer visible independently with
	// probability keep/N); only churn runs need mutable views.
	if cc.OutOfViewFraction > 0 {
		keep := cc.N - int(float64(cc.N)*cc.OutOfViewFraction)
		if cc.N >= compactViewThreshold && !cc.Churn.Active() {
			frac := float64(keep) / float64(cc.N)
			for i := 0; i < cc.N; i++ {
				c.nodes[i].SetView(membership.NewSampledView(uint64(cc.Seed)^0x76696577, i, frac))
			}
		} else {
			c.views = make([]*membership.LiveView, cc.N)
			for i := 0; i < cc.N; i++ {
				v := membership.NewLiveView()
				v.Add(i)
				for _, p := range rng.Perm(cc.N)[:keep] {
					v.Add(p)
				}
				c.views[i] = v
				c.nodes[i].SetView(v)
			}
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
	if cc.Churn.Active() {
		if err := c.setupChurn(cc); err != nil {
			return nil, err
		}
	}
	// Adversary wiring (builder attacks, fault schedule, poisoners) runs
	// last: partial seeding composes with the builder's churn-believed
	// view, and poisoners ride the churn announcement mesh.
	if cc.Adversary.Active() {
		c.setupAdversary(cc)
	}
	return c, nil
}

// blockSize is the size in bytes of the block BlockGossip disseminates.
const blockSize = 128 * 1024

// clusterBootstrapContacts is the sparse deterministic contact set each
// node's DHT routing table starts from; crawls grow it from there.
const clusterBootstrapContacts = 8

// compactViewThreshold is the network size at which static out-of-view
// deployments switch from materialized LiveViews to SampledView
// predicates (see NewCluster).
const compactViewThreshold = 20000

// setupChurn wires the dynamic-membership subsystem: the lifecycle
// engine, per-node evolving views, the announcement gossip mesh, the DHT
// crawl refreshers, and peer-liveness scoring.
func (c *Cluster) setupChurn(cc ClusterConfig) error {
	n := cc.N
	c.dir = membership.NewDirectory(n)
	if c.views == nil {
		c.views = make([]*membership.LiveView, n)
		for i := range c.views {
			c.views[i] = membership.FullLiveView(n)
			c.nodes[i].SetView(c.views[i])
		}
	}
	c.started = make([]bool, n)
	c.joinedAt = make([]time.Duration, n)
	c.leftAt = make([]time.Duration, n)

	// Liveness scoring is enabled only under churn so the static fault
	// sweeps (dead-node timeouts included) keep their exact behaviour.
	c.scorers = make([]*membership.Scorer, n)
	for i := range c.scorers {
		c.scorers[i] = membership.NewScorer(c.net.Now)
		if c.rec != nil {
			c.scorers[i].SetRecorder(c.rec, i)
		}
		c.nodes[i].SetLiveness(c.scorers[i])
	}

	// DHT substrate for view refresh: every node runs a Kademlia peer
	// over the same simulated links as the protocol traffic.
	entries := make([]dht.Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = dht.Entry{ID: c.table.ID(i), Addr: i}
	}
	c.dhtPeers = make([]*dht.Peer, n)
	for i := 0; i < n; i++ {
		c.dhtPeers[i] = dht.NewPeer(entries[i], c.net.Endpoint(i), 0)
		for j := 1; j <= clusterBootstrapContacts && j < n; j++ {
			c.dhtPeers[i].Bootstrap([]dht.Entry{entries[(i+j*13)%n]})
		}
	}
	interval := cc.Churn.RefreshInterval
	if interval == 0 {
		interval = membership.DefaultRefreshInterval
	}
	c.refreshers = make([]*membership.Refresher, n)
	for i := 0; i < n; i++ {
		i := i
		c.refreshers[i] = membership.NewRefresher(
			c.dhtPeers[i], c.views[i], c.net,
			cc.Churn.RefreshInterval, cc.Seed^int64(i)*7919,
			func() bool { return c.dir.Online(i) })
		if c.rec != nil {
			c.refreshers[i].SetRecorder(c.rec, i)
		}
		if interval > 0 {
			// Stagger crawl starts across one interval so the network is
			// not hit by synchronized lookups.
			c.refreshers[i].Start(interval * time.Duration(i) / time.Duration(n))
		}
	}

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
	c.engine = membership.NewEngine(*cc.Churn, c.net, churnRng, n, membership.Hooks{
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
	c.engine.Start()

	// Nodes drawn initially offline have never been online: the builder
	// does not know them, peers' views exclude them, and the simulator
	// treats them as absent until their join fires.
	for i := 0; i < n; i++ {
		if c.engine.Online(i) {
			continue
		}
		c.dir.SetOnline(i, false)
		c.dir.SetBelieved(i, false)
		if err := c.net.SetDead(i, true); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if j != i {
				c.views[j].Remove(i)
			}
		}
	}
	// The builder seeds its BELIEVED membership: graceful leavers are
	// announced and drop out of it; crashed nodes stay believed-online
	// and keep receiving (wasted) seed traffic until they return.
	c.builder.SetView(membership.ViewFunc(c.dir.Believed))
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
	if c.mAnn != nil {
		c.mAnn.Inc()
	}
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
// themselves, and a catch-up crawl rebuilds their possibly stale view.
func (c *Cluster) onChurnJoin(node int, restart bool) {
	if err := c.net.SetDead(node, false); err != nil {
		return
	}
	delete(c.departed, node)
	if c.rec != nil {
		op := obsv.ChurnJoin
		if restart {
			op = obsv.ChurnRestart
		}
		c.rec.Record(obsv.Event{At: c.net.Now(), Slot: c.curSlot,
			Kind: obsv.KindChurnEvent, Node: int32(node), Peer: -1,
			Aux: int64(op)})
	}
	c.dir.SetOnline(node, true)
	c.dir.SetBelieved(node, true)
	if c.joinedAt[node] < 0 {
		c.joinedAt[node] = c.net.Now()
	}
	c.views[node].Add(node)
	c.nodes[node].JoinSlot(c.curSlot)
	c.started[node] = true
	c.publishAnnouncement(node, true)
	c.refreshers[node].RefreshNow()
}

// onChurnLeave takes a node offline. Graceful leavers announce their
// departure first, so peers prune them; crashers vanish silently and
// stay in every view — only liveness backoff steers traffic off them.
func (c *Cluster) onChurnLeave(node int, crash bool) {
	if c.leftAt[node] < 0 {
		c.leftAt[node] = c.net.Now()
	}
	if c.departed != nil {
		c.departed[node] = true
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
		c.dir.SetBelieved(node, false)
	}
	c.dir.SetOnline(node, false)
	_ = c.net.SetDead(node, true)
	c.nodes[node].Stop()
}

// dispatch routes payloads at a node: PANDAS protocol messages to the
// Node, gossip frames to the block router, announcements to the
// membership mesh, DHT RPCs to the node's Kademlia peer.
func (c *Cluster) dispatch(node, from, size int, payload any) {
	if id, ok := payload.(gossip.MsgID); ok {
		c.onBlockGossip(node, from, size, id)
		return
	}
	if m, ok := payload.(annMsg); ok {
		c.onAnnouncement(node, from, size, m)
		return
	}
	if c.dhtPeers != nil && c.dhtPeers[node].HandleMessage(from, payload) {
		if c.mDHT != nil {
			c.mDHT.Inc()
		}
		if c.rec != nil {
			c.rec.Record(obsv.Event{At: c.net.Now(), Slot: c.curSlot,
				Kind: obsv.KindDHTMsg, Node: int32(node), Peer: int32(from),
				Bytes: int64(size)})
		}
		if from >= 0 && from < len(c.nodes) {
			// Any DHT exchange teaches the recipient the sender's record,
			// as real Kademlia contact handling does — this is what lets
			// a joiner's presence spread into routing tables and from
			// there into crawled views.
			c.dhtPeers[node].Table().Add(dht.Entry{ID: c.table.ID(from), Addr: from})
		}
		return
	}
	c.nodes[node].HandleMessage(from, size, payload)
}

func (c *Cluster) onBlockGossip(node, from, size int, id gossip.MsgID) {
	if c.routers == nil {
		return
	}
	fwd, isNew := c.routers[node].Receive(c.overlay, id, from)
	if !isNew {
		if c.mGossipDup != nil {
			c.mGossipDup.Inc()
		}
		return
	}
	if c.mGossip != nil {
		c.mGossip.Inc()
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

// Directory exposes the online/believed membership directory (nil
// without dynamic membership).
func (c *Cluster) Directory() *membership.Directory { return c.dir }

// RunSlot simulates one full slot: the proposer selects the builder at
// slot start, the builder seeds, nodes consolidate and sample. The
// simulation runs for a full 12 s slot so that stragglers past the 4 s
// deadline are still measured (as in Fig. 11).
func (c *Cluster) RunSlot(slot uint64) (*SlotResult, error) {
	start := c.net.Now()
	droppedBefore := c.net.Dropped()
	c.curSlot = slot
	// Liveness scorers and refreshers outlive slots; restamp the slot
	// their traced events carry.
	for _, s := range c.scorers {
		s.SetSlot(slot)
	}
	for _, r := range c.refreshers {
		r.SetSlot(slot)
	}
	for i, n := range c.nodes {
		c.blockRecv[i] = -1
		if c.dir != nil {
			c.joinedAt[i] = -1
			c.leftAt[i] = -1
			c.started[i] = c.dir.Online(i)
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

	// Scheduled network faults re-arm each slot at their offsets.
	c.armFaults()

	// t=0: proposer instructs the builder to seed, and (optionally)
	// publishes the block via gossip from a random well-known node. A
	// late-seeding attack postpones the builder, eating into the 4 s
	// sampling budget.
	var report SeedingReport
	c.net.After(c.seedDelay, func() {
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
	res.BuilderBytes = c.net.Stats(len(c.nodes)).BytesSent // the builder is vertex N
	if c.engine != nil {
		st := c.engine.Stats()
		res.Churn = st.Minus(c.churnPrev)
		c.churnPrev = st
	}
	res.Outcomes = make([]NodeOutcome, len(c.nodes))
	for i := range c.nodes {
		res.Outcomes[i] = c.nodeOutcome(i, start)
	}
	// Reset traffic stats so subsequent slots measure independently.
	c.net.ResetStats()
	return res, nil
}

// nodeOutcome derives one node's NodeOutcome from the unified read path:
// the obsv view the node's observer maintained during the slot (returned
// by Node.Metrics), plus the cluster's own lifecycle and block-gossip
// bookkeeping. Durations are made relative to the slot start here; the
// view keeps absolute virtual times.
func (c *Cluster) nodeOutcome(i int, start time.Duration) NodeOutcome {
	o := NewNodeOutcome()
	o.Dead = c.dead[i]
	if c.dir != nil {
		o.Offline = !c.started[i]
		if c.joinedAt[i] >= 0 {
			o.JoinedAt = c.joinedAt[i] - start
		}
		if c.leftAt[i] >= 0 {
			o.LeftAt = c.leftAt[i] - start
		}
	}
	if o.Offline {
		// The node never ran this slot; its view holds stale leftovers
		// from its last active slot.
		return o
	}
	m := c.nodes[i].Metrics()
	o.FetchMsgs = m.FetchMsgsSent + m.FetchMsgsRecv
	o.FetchBytes = m.FetchBytesSent + m.FetchBytesRecv
	o.Rounds = m.Rounds
	if m.HasSeed {
		// "Time to seeding" is the arrival of the node's initial seed
		// data (the paper's Fig. 9a metric).
		o.Seed = m.FirstSeedAt - start
	}
	if m.Consolidated {
		o.Consolidation = m.ConsolidatedAt - start
		if m.HasSeed {
			o.ConsFromSeed = m.ConsolidatedAt - m.FirstSeedAt
		}
	}
	if m.Sampled {
		o.Sampling = m.SampledAt - start
	}
	if c.blockRecv[i] >= 0 {
		o.BlockRecv = c.blockRecv[i] - start
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
