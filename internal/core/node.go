package core

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"time"

	"pandas/internal/blob"
	"pandas/internal/fetch"
	"pandas/internal/ids"
	"pandas/internal/membership"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

// inflightTTL is how long an unanswered query still counts toward a
// cell's redundancy target before other peers are asked instead. Queried
// peers that lack a cell buffer the request and reply once their own
// seeding/consolidation delivers it — typically within the builder's
// ~1 s transmission window — so expiring earlier only produces duplicate
// deliveries, while expiring much later delays recovery from genuinely
// lost responses. Without consolidation, once seeding is over, nothing
// delivers a cell late, and an ask counts for its round only.
const inflightTTL = 1600 * time.Millisecond

// flushDelay is the coalescing window for replies to buffered queries.
const flushDelay = 25 * time.Millisecond

// boostParcel is one entry of the builder's consolidation-boost map: peer
// was seeded count cells of line from position start.
type boostParcel struct {
	peer         int32
	line         blob.Line
	start, count uint16
}

// phase is where a node is in its slot (Fig. 5). Only begin (down ->
// waiting), startFetch (waiting -> fetching), pause (fetching -> waiting),
// complete (-> done) and Stop (-> down) write it; a down node handles
// nothing. The seed flow's open/over bit (seedOver, written by begin and
// endSeedFlow) is the only other lifecycle state.
type phase uint8

const (
	phaseDown phase = iota
	phaseWaiting
	phaseFetching
	phaseDone
)

// ask is one peer's buffered query for a missing custody cell. The asks
// for one cell chain through next, a 1-based index into Node.asks.
type ask struct {
	peer, next int32
}

// Node is one PANDAS participant: it custodies assigned rows/columns,
// consolidates them from peers, answers custody queries, and samples
// random cells — all per slot.
type Node struct {
	cfg   Config
	index int
	table *Table
	tr    Transport
	rng   *rand.Rand

	// view reports whether a peer is in this node's (possibly incomplete
	// and possibly evolving) view; nil means the full view.
	view membership.View

	// health remembers the peers that failed this node (see
	// reportFailure). Unlike the per-slot state below, begin never resets
	// it: a peer that failed this node in slot s is still known-bad in
	// slot s+1, and after this node crashes and rejoins.
	health map[int]peerHealth

	// verifySeeds enables proposer-signature checks on seed messages.
	verifySeeds bool
	proposerPub ed25519.PublicKey

	// Lifecycle (see phase). gen increments on every begin and Stop, so
	// timers armed in an earlier lifetime of the node never run.
	phase    phase
	seedOver bool
	gen      uint64

	// Per-slot state. The maps, tables and slices are cleared and reused
	// across slots (and the store reset in place) instead of reallocated:
	// per-slot garbage is what caps how many nodes fit in one process.
	slot       uint64
	store      *Store
	samples    []blob.CellID
	pendingSmp map[blob.CellID]bool
	// boost holds the CB parcels of other peers, in arrival order.
	boost []boostParcel
	// queryRound records the round each peer was last queried in. A peer
	// is queried at most once between re-arms of the queryable set: it is
	// excluded while its round is not before lastRearm (see wasQueried).
	queryRound stampTable
	round      int
	lastRearm  int
	roundEnds  []time.Duration
	seedChunks int
	// seedQuietAt is the seed-quiet deadline (see armSeedQuiet).
	seedQuietAt time.Duration
	// outstanding lists the in-flight requests; unexpired entries count
	// toward the redundancy target so rounds do not re-request what is
	// already on its way.
	outstanding []inflight
	// askHead maps a missing custody cell (cellKey) to its chain of
	// buffered asks, one per peer; the cell's landing serves the chain.
	askHead stampTable
	asks    []ask
	// pendingOut coalesces responses to buffered queries: cells often
	// land in bursts (seed chunks, reconstruction), and answering each
	// arrival individually would multiply message counts. A short timer,
	// armed when the first reply is owed, flushes the batch. It is one
	// flat list in landing order, reused across flushes; flush groups it
	// by recipient.
	pendingOut []owedCell
	// awaitReply tracks, per queried peer, the deadline by which SOME
	// response must arrive before the peer is reported timed out to
	// health.
	awaitReply map[int]time.Duration
	// badPeers bans, for the rest of the slot, peers that served cells
	// failing proof verification: unlike a timeout (which exponential
	// backoff forgives), a bad proof is cryptographic evidence of
	// misbehavior, so the planner never asks the peer again this slot —
	// including across the periodic queried-set re-arm sweeps.
	badPeers map[int]bool

	// onDone is the slot-completion event (see OnSlotDone).
	onDone func()

	// seedSig remembers the proposer signature last verified for this
	// node's current proposer key: every datagram of a seed batch carries
	// the same (slot, builder, signature), and only an exact match skips
	// the Ed25519 check.
	seedSig struct {
		ok      bool
		slot    uint64
		builder ids.NodeID
		sig     [wire.SigSize]byte
	}

	// Scratch buffers reused across calls on the event-loop hot paths
	// (addCells, flush, the reply-deadline sweep). All are cleared
	// before use; none escape the call that fills them. Round planning
	// works in a planScratch borrowed from planPool instead.
	touchedScr []bool // per custody line, in store line order
	peerScr    []int  // a sorted list of peers

	// msgs is the free list the node builds its queries and responses in
	// (nil outside a simulated cluster: every message is allocated).
	msgs *msgPool

	// obs maintains the current slot's metrics view and (optionally)
	// traces protocol events through cfg.Recorder.
	obs obsv.Observer
}

// NewNode creates a node bound to a transport address. rngSeed drives the
// node's local (unpredictable to others) choices: sample selection.
func NewNode(cfg Config, index int, table *Table, tr Transport, rngSeed int64) *Node {
	return &Node{
		cfg:   cfg,
		index: index,
		table: table,
		tr:    tr,
		rng:   rand.New(rand.NewSource(rngSeed)),
		obs:   obsv.Observer{Rec: cfg.Recorder, Node: int32(index)},
	}
}

// Metrics returns the node's observations for the current slot — a copy
// of the live view the node's observer maintains.
func (n *Node) Metrics() obsv.NodeView { return n.obs.View }

// Outcome reports the current slot as a NodeOutcome with its times
// relative to start, the slot start on the caller's clock. It is the one
// conversion from the live view to the record every runtime reports; a
// runtime adds only what the node cannot know (Dead, Offline, JoinedAt,
// LeftAt, BlockRecv). Rounds aliases the live view: copy it to keep it
// past the slot.
func (n *Node) Outcome(start time.Duration) NodeOutcome {
	m := &n.obs.View
	o := NewNodeOutcome()
	o.FetchMsgs = m.FetchMsgsSent + m.FetchMsgsRecv
	o.FetchBytes = m.FetchBytesSent + m.FetchBytesRecv
	o.CorruptRejects = m.CorruptRejects
	o.Rounds = m.Rounds
	if m.HasSeed {
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
	return o
}

// SetView restricts the node's knowledge of the network to v, which may
// evolve while the slot runs (a cluster's membership.PeerView, changed
// by announcements). Passing nil restores the complete view.
func (n *Node) SetView(v membership.View) { n.view = v }

// OnSlotDone installs the slot-completion event: fn runs on the node's
// event loop, once per StartSlot, the first time the slot is complete
// (consolidated and sampled; sampled alone with DisableConsolidation).
// Hosts use it instead of polling Metrics. fn must not call StartSlot.
func (n *Node) OnSlotDone(fn func()) { n.onDone = fn }

// SetSeedVerification enables proposer-signature verification of seeding
// messages against the given proposer public key.
func (n *Node) SetSeedVerification(pub ed25519.PublicKey) {
	n.verifySeeds = pub != nil
	n.proposerPub = pub
	n.seedSig.ok = false
}

// Index returns the node's transport address.
func (n *Node) Index() int { return n.index }

// afterGuarded schedules fn but drops it if the node has since been
// restarted or stopped (gen moved). Slot-number checks alone cannot catch
// a crash+restart WITHIN one slot, and they also let a timer armed near
// the end of slot s leak into slot s when the counter wraps around a
// multi-slot run; the generation counter closes both holes.
func (n *Node) afterGuarded(d time.Duration, fn func()) {
	g := n.gen
	n.tr.After(d, func() {
		if n.gen == g {
			fn()
		}
	})
}

// Store exposes the current slot's custody store (for inspection).
func (n *Node) Store() *Store { return n.store }

// Samples returns the cells selected for sampling this slot.
func (n *Node) Samples() []blob.CellID { return n.samples }

// StartSlot begins a slot, resetting the store in place and drawing the
// slot's random sample set.
func (n *Node) StartSlot(slot uint64) { n.begin(slot) }

// JoinSlot brings a node online partway through a slot: a joiner (or a
// restarting crasher) starts from an empty store — whatever it held
// before going down is gone — and must fetch everything it needs from
// peers. Seeding has typically already passed it by, so the seed-quiet
// deadline is what starts its fetch unless a straggling seed datagram
// arrives first.
//
// The joiner gets a new store rather than rewinding the old one: peers
// may still hold payloads the simulator passed them by reference out of
// it this slot, restored cells included, and a rewound store would decode
// its next lines over them.
func (n *Node) JoinSlot(slot uint64) {
	n.store = nil
	n.begin(slot)
}

// begin is the transition into waiting: per-slot state is reset and the
// seed-quiet deadline armed at 3 x SeedWait, so a node whose seeds never
// arrive still consolidates and samples. The paper arms this timer at the
// slot's first query (Section 6.2); armed here it never fires later. The
// wait is generous so that nodes seeded late in the builder's ~1 s
// schedule still start from their seed batch, which keeps round-1 queries
// aimed at peers that already hold data (the paper's Table 1 dynamics).
func (n *Node) begin(slot uint64) {
	n.slot = slot
	n.gen++
	n.phase = phaseWaiting
	n.seedOver = false
	a := n.table.Assignment(n.index)
	if n.store == nil {
		n.store = NewStore(n.cfg.Blob, a, n.cfg.RealPayloads, n.verifySeeds)
	} else {
		n.store.Reset(a, n.cfg.RealPayloads, n.verifySeeds)
	}
	n.samples = DrawSamples(n.rng, n.cfg.Blob, n.cfg.Samples)
	n.pendingSmp = resetMap(n.pendingSmp, len(n.samples))
	for _, c := range n.samples {
		n.pendingSmp[c] = true
	}
	n.boost = n.boost[:0]
	n.queryRound.reset()
	n.round = 0
	n.lastRearm = 0
	n.roundEnds = n.roundEnds[:0]
	n.seedChunks = 0
	n.outstanding = n.outstanding[:0]
	n.askHead.reset()
	n.asks = n.asks[:0]
	n.pendingOut = n.pendingOut[:0]
	n.awaitReply = resetMap(n.awaitReply, 0)
	n.badPeers = resetMap(n.badPeers, 0)
	n.obs.BeginSlot(slot, n.tr.Now())
	n.armSeedQuiet(3 * n.cfg.SeedWait)
}

// Stop is the transition into down, as a crash or a departure takes a
// node: every timer it armed is dropped, and until the next StartSlot or
// JoinSlot it sends nothing and handles nothing. A node that kept
// fetching while down would count sends nobody receives and back off
// every peer it queried as timed out.
func (n *Node) Stop() {
	n.gen++
	n.phase = phaseDown
}

// startFetch moves a waiting node to fetching and runs the first round;
// its F is the initial fetch set (again when a paused fetch resumes).
func (n *Node) startFetch() {
	if n.phase != phaseWaiting {
		return
	}
	n.phase = phaseFetching
	ps := planPool.Get().(*planScratch)
	defer planPool.Put(ps)
	n.obs.View.InitialFetchSet = len(n.missingCells(ps))
	n.runRound(ps)
}

// pause moves a fetching node back to waiting: its round found nothing to
// ask (every missing cell is promised) or was the last of fetch.DefaultMaxRounds.
func (n *Node) pause() { n.phase = phaseWaiting }

// complete moves a node to done and fires OnSlotDone, once per slot.
func (n *Node) complete() {
	n.phase = phaseDone
	if n.onDone != nil {
		n.onDone()
	}
}

// endSeedFlow closes the seed flow and every promise with it: a promised
// cell not landed by then (batch end or seed-quiet deadline) is fetched.
func (n *Node) endSeedFlow() { n.seedOver = true }

// armSeedQuiet moves the seed-quiet deadline to d from now. Passed
// unmoved, it ends the seed flow if a datagram arrived and starts (or
// resumes) a waiting node's fetch.
func (n *Node) armSeedQuiet(d time.Duration) {
	at := n.tr.Now() + d
	n.seedQuietAt = at
	n.afterGuarded(d, func() {
		if n.seedQuietAt != at {
			return
		}
		if n.seedChunks > 0 {
			n.endSeedFlow()
		}
		n.startFetch()
	})
}

// DrawSamples picks count distinct random cells of the extended matrix
// from rng, unpredictable to other participants (unlike the custody
// assignment). A node draws its slot's samples with it from its private
// stream; the baselines draw theirs with it from the same stream, so node
// i samples the same cells in every system.
func DrawSamples(rng *rand.Rand, p blob.Params, count int) []blob.CellID {
	total := p.ExtendedCells()
	out := make([]blob.CellID, 0, count)
	for len(out) < count {
		id := blob.CellIDFromIndex(rng.Intn(total), p.N())
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// resetMap returns m emptied for reuse, allocating only on first use.
func resetMap[K comparable, V any](m map[K]V, hint int) map[K]V {
	if m == nil {
		return make(map[K]V, hint)
	}
	clear(m)
	return m
}

// promised reports whether a cell is on its way from the builder: the
// seed flow is open, an own parcel names it and the store lacks it.
func (n *Node) promised(id blob.CellID) bool {
	pl := n.store.locate(id)
	return !n.seedOver && !pl.held && (pl.row >= 0 && hasBit(n.store.lines[pl.row].own, int(id.Col)) ||
		pl.col >= 0 && hasBit(n.store.lines[pl.col].own, int(id.Row)))
}

// HandleMessage dispatches a received protocol payload and ignores any
// other. The message is lent (a socket transport decodes in place and
// takes its buffer back when the handler returns; a simulated cluster
// hands a query or response to its next sender): the node keeps nothing
// of it past the call — IDs and boost entries are copied by value, and
// the store copies a Borrowed payload when it inserts the cell.
func (n *Node) HandleMessage(from int, size int, payload any) {
	switch m := payload.(type) {
	case *wire.Seed:
		n.onSeed(m)
	case *wire.Query:
		n.obs.View.FetchMsgsRecv++
		n.obs.View.FetchBytesRecv += int64(size)
		n.onQuery(from, m)
	case *wire.Response:
		n.obs.View.FetchMsgsRecv++
		n.obs.View.FetchBytesRecv += int64(size)
		n.onResponse(from, m)
	}
}

func (n *Node) onSeed(m *wire.Seed) {
	if m.Slot != n.slot || n.phase == phaseDown {
		return
	}
	if n.verifySeeds && !n.seedSigned(m) {
		return // unauthenticated seeding: ignore
	}
	if _, ok := n.store.Commitment(); !ok {
		n.store.SetCommitment(m.Commitment)
	}
	now := n.tr.Now()
	n.obs.SeedChunk(now, len(m.Cells))
	n.seedChunks++
	n.armSeedQuiet(n.cfg.SeedWait) // lost tail chunks end the flow here
	dups, added, rejects := n.addCells(m.Cells)
	n.obs.SeedIngested(now, added, dups)
	if rejects > 0 && n.obs.Enabled() {
		// Peer -1: the rejecting batch came from the seeding path, not a
		// fetch peer (nothing to ban — seeds are already authenticated).
		n.obs.Emit(obsv.Event{At: now, Kind: obsv.KindCorruptReject,
			Peer: -1, Count: int32(rejects)})
	}
	width := n.cfg.Blob.N()
	for _, run := range m.Boost {
		for _, e := range run {
			if lineNumber(e.Line, width) < 0 {
				continue // not a line of this matrix
			}
			peer := n.table.HolderAt(e.Line, int(e.HolderRef))
			end := min(int(e.Start)+int(e.Count), width)
			if peer < 0 || int(e.Start) >= end {
				continue // no such holder, or no cell of the line named
			}
			// Only custody lines are ever asked about (missingCells).
			if li := n.store.lineIndex(e.Line); li >= 0 {
				seeded := n.store.lines[li].cbSeeded
				for p := int(e.Start); p < end; p++ {
					seeded[p/64] |= 1 << uint(p%64)
				}
			}
			if peer == n.index {
				// Our own parcels: the builder is sending these cells to us.
				for pos := int(e.Start); pos < end; pos++ {
					id := cellOnLine(e.Line, pos)
					if li := n.store.rowIndex(id.Row); li >= 0 {
						n.store.lines[li].own[id.Col/64] |= 1 << (id.Col % 64)
					}
					if li := n.store.colIndex(id.Col); li >= 0 {
						n.store.lines[li].own[id.Row/64] |= 1 << (id.Row % 64)
					}
				}
				continue
			}
			n.boost = append(n.boost, boostParcel{peer: int32(peer), line: e.Line,
				start: e.Start, count: uint16(end - int(e.Start))})
		}
	}
	if n.seedChunks >= int(m.ChunkCount) {
		// Full batch landed: everything still missing is fair game.
		n.endSeedFlow()
	}
	// The reception of seed cells triggers consolidation and sampling
	// (Fig. 5): round 1 is planned at the first datagram that carries
	// cells, or when the batch completes for a node seeded none. The
	// builder sends a node's boost datagrams first, the last of them with
	// its first cells, whose boost runs were read above, so by then the
	// node holds its whole share of the consolidation-boost map: every
	// cell still on its way to it is promised and stays out of F, and
	// peers seeded with the rest are known. A datagram without cells may
	// carry only part of the map: a round planned there would re-request
	// the seed cells of the lines still to come.
	if len(m.Cells) > 0 || n.seedOver {
		n.startFetch()
	}
}

// seedSigned reports whether the seed datagram carries a valid proposer
// signature. A batch is many datagrams with the same (slot, builder,
// signature), so the last triple that verified is remembered and an
// exact byte match skips the Ed25519 check; anything else — a different
// builder, a forged or merely different signature — is verified in full.
func (n *Node) seedSigned(m *wire.Seed) bool {
	c := &n.seedSig
	if c.ok && c.slot == m.Slot && c.builder == m.Builder && c.sig == m.ProposerSig {
		return true
	}
	if !ids.VerifyFrom(n.proposerPub, wire.SeedSigningBytes(m.Slot, m.Builder), m.ProposerSig[:]) {
		return false
	}
	c.ok, c.slot, c.builder, c.sig = true, m.Slot, m.Builder, m.ProposerSig
	return true
}

func (n *Node) onQuery(from int, m *wire.Query) {
	if m.Slot != n.slot || n.phase == phaseDown {
		return
	}
	// The reply is sized before it is built, so each of its datagrams is
	// taken at the size it is sent at.
	left := 0
	for _, id := range m.Cells {
		if n.store.Has(id) {
			left++
		}
	}
	var r *wire.Response
	for _, id := range m.Cells {
		if c, ok := n.store.Peek(id); ok {
			if r == nil {
				r = n.msgs.response(n.slot, min(left, wire.MaxCellsPerMessage))
			}
			r.Cells = append(r.Cells, c)
			left--
			if len(r.Cells) == wire.MaxCellsPerMessage {
				n.sendResponse(from, r)
				r = nil
			}
		} else if n.store.Covered(id) {
			// Assigned but not yet received: buffer, reply when it lands
			// (no negative acknowledgements).
			n.bufferAsk(id, from)
		}
	}
	if r != nil {
		n.sendResponse(from, r)
	}
}

// bufferAsk chains the peer's ask onto the cell's, unless it is there.
func (n *Node) bufferAsk(id blob.CellID, from int) {
	head, _ := n.askHead.ref(cellKey(id))
	for i := *head; i > 0; i = n.asks[i-1].next {
		if n.asks[i-1].peer == int32(from) {
			return
		}
	}
	n.asks = append(n.asks, ask{peer: int32(from), next: *head})
	*head = int32(len(n.asks))
}

func (n *Node) onResponse(from int, m *wire.Response) {
	if m.Slot != n.slot || n.phase == phaseDown {
		return
	}
	// Any response — even an empty or partial one — settles the reply
	// deadline; whether it counts for or against the peer depends on
	// whether its cells verify.
	delete(n.awaitReply, from)
	round := 0
	var stat *obsv.RoundStat
	// Attribute the reply to the round in which the peer was queried.
	if qr, ok := n.queryRound.get(uint32(from)); ok && qr >= 1 && int(qr) <= len(n.roundEnds) {
		round = int(qr)
		stat = &n.obs.View.Rounds[round-1]
		if n.tr.Now() <= n.roundEnds[round-1] {
			stat.RepliesInRound++
			stat.CellsInRound += len(m.Cells)
		} else {
			stat.RepliesAfterRound++
			stat.CellsAfterRound += len(m.Cells)
		}
	}
	dups, added, rejects := n.addCells(m.Cells)
	if stat != nil {
		stat.Duplicates += dups
	}
	if n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindCellsReceived,
			Src: obsv.SrcFetch, Peer: int32(from), Round: int32(round),
			Count: int32(added), Aux: int64(dups)})
	}
	if rejects > 0 {
		// Cryptographic evidence of misbehavior — a signed commitment and
		// a cell that fails against it. Ban the peer for the rest of the
		// slot (the periodic queried-set re-arm must not resurrect it) and
		// report garbage rather than success to health.
		n.badPeers[from] = true
		n.reportFailure(from, true)
		if n.obs.Enabled() {
			n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindCorruptReject,
				Peer: int32(from), Round: int32(round), Count: int32(rejects)})
		}
		return
	}
	n.reportSuccess(from)
}

// Peer health is Algorithm 1's scoring step extended with failure
// knowledge. A peer's first timeout backs it off for baseBackoff, and
// each further consecutive one doubles that up to maxBackoff; while a
// backoff runs the peer is not queryable. Once it expires the peer is
// re-armed, its score lowered by healthPenalty per failure, and its
// next reply that carries no bad proof clears it.
const (
	baseBackoff   = time.Second
	maxBackoff    = 30 * time.Second
	healthPenalty = 2
	// capFailures is the first failure count whose backoff is
	// maxBackoff; a garbage reply jumps straight to it.
	capFailures = 6
)

// peerHealth is what a node remembers of a peer that failed it.
type peerHealth struct {
	failures int
	until    time.Duration // end of the backoff
	// demoted records that a round has skipped the peer (and traced
	// KindPeerDemoted) during this backoff.
	demoted bool
}

// backoff is the quarantine after a peer's f-th consecutive failure.
func backoff(f int) time.Duration {
	b := baseBackoff
	for i := 1; i < f && b < maxBackoff; i++ {
		b *= 2
	}
	return min(b, maxBackoff)
}

// reportFailure backs a peer off after a timeout or, garbage set, after
// cells that failed their proofs. Unlike a timeout, which might be
// congestion, garbage is deliberate: the peer carries at least the
// failure count of a peer backed off all the way to the cap.
func (n *Node) reportFailure(peer int, garbage bool) {
	if n.health == nil {
		n.health = make(map[int]peerHealth)
	}
	h := n.health[peer]
	h.failures++
	if garbage {
		h.failures = max(h.failures, capFailures)
	}
	back := backoff(h.failures)
	h.until, h.demoted = n.tr.Now()+back, false
	n.health[peer] = h
	if n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindPeerTimeout,
			Peer: int32(peer), Count: int32(h.failures), Aux: int64(back)})
	}
}

// reportSuccess clears a peer's failures and backoff.
func (n *Node) reportSuccess(peer int) {
	h, ok := n.health[peer]
	if !ok {
		return
	}
	delete(n.health, peer)
	if n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindPeerRecovered,
			Peer: int32(peer), Count: int32(h.failures)})
	}
}

// addCells ingests a batch of cells: store them, satisfy samples, flush
// buffered queries, attempt erasure reconstruction, and update phase
// completion. It returns the duplicate count, the number of cells added,
// and the number rejected for failing proof verification. Rejected cells
// are never ingested: their in-flight markers are dropped on the spot so
// the next round's plan re-requests them from other peers.
func (n *Node) addCells(cells []wire.Cell) (dups, added, rejects int) {
	if len(cells) == 0 {
		return 0, 0, 0
	}
	n.touchedScr = zeroed(n.touchedScr, n.store.TrackedLines())
	touched := n.touchedScr
	for i := range cells {
		c := &cells[i]
		ok, err := n.store.add(c)
		if errors.Is(err, ErrBadProof) {
			rejects++
			n.forgetInflight(c.ID)
			n.obs.View.CorruptRejects++
			continue
		}
		if err != nil || !ok {
			dups++
			continue
		}
		added++
		n.cellLanded(c.ID, touched)
	}
	// Erasure reconstruction of any custody line that crossed the
	// half-full threshold (Algorithm 1, UPONRECEIVE), rows before columns
	// in ascending order — which is store line order. Restored cells touch
	// the custody lines that cross theirs, and may carry one of those past
	// the threshold too, so the sweep repeats until no line decodes.
	reconBuf := reconPool.Get().(*[]wire.Cell)
	defer reconPool.Put(reconBuf)
	recon := 0
	for again := true; again; {
		again = false
		for li, hit := range touched {
			if !hit {
				continue
			}
			touched[li] = false
			newCells, err := n.store.tryReconstructInto(n.store.lineAt(li), reconBuf)
			if err != nil || len(newCells) == 0 {
				continue
			}
			again = true
			recon += len(newCells)
			for i := range newCells {
				n.cellLanded(newCells[i].ID, touched)
			}
		}
	}
	if recon > 0 && n.round >= 1 && n.round <= len(n.obs.View.Rounds) {
		n.obs.View.Rounds[n.round-1].Reconstructed += recon
	}
	if recon > 0 && n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindCellsReceived,
			Src: obsv.SrcReconstruct, Peer: -1, Round: int32(n.round),
			Count: int32(recon)})
	}
	n.updateCompletion()
	return dups, added, rejects
}

// reconPool lends addCells the buffer a metadata store restores a line
// into (see Store.tryReconstructInto); the UDP runtimes run nodes on
// their own goroutines.
var reconPool = sync.Pool{New: func() any { return new([]wire.Cell) }}

// owedCell is a landed cell owed to a peer whose ask for it was
// buffered.
type owedCell struct {
	to int32
	id blob.CellID
}

// flush sends the coalesced replies to buffered queries: one reply per
// recipient, recipients in ascending order, each reply's cells in landing
// order, in datagrams of at most wire.MaxCellsPerMessage cells.
func (n *Node) flush() {
	out := n.pendingOut
	slices.SortStableFunc(out, func(a, b owedCell) int { return int(a.to) - int(b.to) })
	for len(out) > 0 {
		k := 1
		for k < len(out) && k < wire.MaxCellsPerMessage && out[k].to == out[0].to {
			k++
		}
		r := n.msgs.response(n.slot, k)
		for _, o := range out[:k] {
			c, _ := n.store.Peek(o.id)
			r.Cells = append(r.Cells, c)
		}
		n.sendResponse(int(out[0].to), r)
		out = out[k:]
	}
	n.pendingOut = n.pendingOut[:0]
}

// cellLanded performs the bookkeeping for one newly present cell: a
// satisfied sample, and the replies owed to the peers whose asks for it
// were buffered. Its in-flight requests need none: a present cell is
// never in F again, so they count toward nothing and expire where they
// are. Nor does a promise it kept: a held cell is not promised.
func (n *Node) cellLanded(id blob.CellID, touched []bool) {
	delete(n.pendingSmp, id)
	// A cell lands once per slot, so its chain is walked once.
	if head, ok := n.askHead.get(cellKey(id)); ok {
		if len(n.pendingOut) == 0 {
			n.afterGuarded(flushDelay, n.flush)
		}
		for i := head; i > 0; i = n.asks[i-1].next {
			n.pendingOut = append(n.pendingOut, owedCell{to: n.asks[i-1].peer, id: id})
		}
	}
	if touched != nil {
		if li := n.store.rowIndex(id.Row); li >= 0 && n.store.open(li) {
			touched[li] = true
		}
		if li := n.store.colIndex(id.Col); li >= 0 && n.store.open(li) {
			touched[li] = true
		}
	}
}

// forgetInflight drops the in-flight requests for a cell whose delivery
// was rejected, so that the next round asks another peer for it at once.
func (n *Node) forgetInflight(id blob.CellID) {
	key := cellKey(id)
	for i := range n.outstanding {
		if n.outstanding[i].cell == key {
			n.outstanding[i].expiry = 0 // expired
		}
	}
}

// updateCompletion records consolidation and sampling completion times,
// and completes the slot once both are in.
func (n *Node) updateCompletion() {
	now := n.tr.Now()
	v := &n.obs.View
	if !v.Consolidated && n.store.CompleteLines() == n.store.TrackedLines() {
		n.obs.ConsolidationDone(now)
	}
	if !v.Sampled && len(n.pendingSmp) == 0 {
		n.obs.SamplingDone(now, len(n.samples))
	}
	if n.phase != phaseDone && v.Sampled && (v.Consolidated || n.cfg.DisableConsolidation) {
		n.complete()
	}
}

// DeliverCustody ingests custody cells that arrived outside the PANDAS
// seeding path (e.g. via the GossipSub baseline's topic meshes). It
// triggers the sampling fetcher on first delivery.
func (n *Node) DeliverCustody(cells []wire.Cell) {
	if n.phase == phaseDown {
		return
	}
	n.addCells(cells)
	n.startFetch()
}

// sendResponse counts a response and hands it to the transport, which
// owns it from here on.
func (n *Node) sendResponse(to int, m *wire.Response) {
	size := m.WireSize(n.cfg.Blob.CellBytes)
	n.obs.View.FetchMsgsSent++
	n.obs.View.FetchBytesSent += int64(size)
	n.tr.Send(to, size, m)
}

// runRound executes one round of Algorithm 1 on the F in ps and schedules
// the next. Recording the ended round's coverage is all it does once the
// node is done.
func (n *Node) runRound(ps *planScratch) {
	F := ps.F
	if n.round >= 1 && n.round <= len(n.obs.View.Rounds) && n.obs.View.InitialFetchSet > 0 {
		n.obs.View.Rounds[n.round-1].CoverageAfter =
			1 - float64(len(F))/float64(n.obs.View.InitialFetchSet)
	}
	if n.phase != phaseFetching {
		return
	}
	if n.round >= fetch.DefaultMaxRounds {
		n.pause()
		return
	}
	n.round++
	// Sweep expired reply deadlines: a peer queried more than inflightTTL
	// ago with no response of any kind goes into exponential backoff (and
	// is re-armed later via the queryable-set sweep below). Expired peers
	// are reported in ascending order, so a traced run is reproducible.
	now := n.tr.Now()
	expired := n.peerScr[:0]
	for peer, deadline := range n.awaitReply {
		if now >= deadline {
			expired = append(expired, peer)
		}
	}
	slices.Sort(expired)
	n.peerScr = expired
	for _, peer := range expired {
		delete(n.awaitReply, peer)
		n.reportFailure(peer, false)
	}
	if len(F) == 0 {
		n.pause()
		return
	}
	stat := obsv.RoundStat{}
	// Periodic re-arm: with single-copy data (the minimal policy) a lost
	// response can leave a cell whose only live holder has already been
	// queried; re-arming the queryable set every few rounds lets the node
	// retry it. In-flight markers keep this from duplicating requests in
	// the common case.
	if n.round > 1 && n.round-n.lastRearm >= 8 {
		n.lastRearm = n.round
	}
	plan := n.planRound(ps)
	if len(plan) == 0 && len(F) > 0 && n.round > 1 && n.round-n.lastRearm >= 4 {
		// Every queryable peer has been used while cells remain missing —
		// possible because earlier rounds requested only budgeted subsets
		// of each line. Re-arm the queryable set (a fresh Q <- V sweep);
		// in-flight markers still prevent immediate duplicate requests,
		// and the sweep is rate-limited to one per four rounds.
		n.lastRearm = n.round
		plan = n.planRound(ps)
	}
	if n.obs.Enabled() {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindRoundStarted,
			Peer: -1, Round: int32(n.round), Count: int32(len(F)),
			Aux: int64(len(plan))})
	}
	// Each query is built in a message taken from the node's free list:
	// the transport owns it until delivery, and in a simulated cluster the
	// receiver's handler returning hands it back to the list.
	for _, q := range plan {
		peer := q.Peer
		lastQueried, _ := n.queryRound.ref(uint32(peer))
		*lastQueried = int32(n.round)
		if _, waiting := n.awaitReply[peer]; !waiting {
			n.awaitReply[peer] = n.tr.Now() + inflightTTL
		}
		stat.CellsRequested += len(q.Cells)
		for cells := q.Cells; len(cells) > 0; {
			k := min(len(cells), wire.MaxCellsPerMessage)
			m := n.msgs.query(n.slot, k)
			for _, idx := range cells[:k] {
				m.Cells = append(m.Cells, F[idx])
			}
			cells = cells[k:]
			size := m.WireSize(n.cfg.Blob.CellBytes)
			stat.MsgsSent++
			n.obs.View.FetchMsgsSent++
			n.obs.View.FetchBytesSent += int64(size)
			n.tr.Send(peer, size, m)
		}
	}
	timeout := n.cfg.Schedule.Timeout(n.round)
	n.obs.View.Rounds = append(n.obs.View.Rounds, stat)
	n.roundEnds = append(n.roundEnds, n.tr.Now()+timeout)
	n.afterGuarded(timeout, func() {
		ps := planPool.Get().(*planScratch)
		defer planPool.Put(ps)
		n.missingCells(ps)
		n.runRound(ps)
	})
}
