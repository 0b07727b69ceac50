package core

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"slices"
	"time"

	"pandas/internal/blob"
	"pandas/internal/fetch"
	"pandas/internal/ids"
	"pandas/internal/membership"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

// LivenessRecorder is the node-side contract of peer-liveness scoring:
// the fetcher reports per-peer query outcomes and consults queryability
// and penalties when scoring candidates. Implemented by
// membership.Scorer.
type LivenessRecorder interface {
	fetch.Liveness
	// ReportTimeout records that a query to the peer expired unanswered.
	ReportTimeout(peer int)
	// ReportSuccess records a response from the peer.
	ReportSuccess(peer int)
	// ReportGarbage records that the peer served cells failing proof
	// verification — worse than a timeout: the peer is alive and lying.
	ReportGarbage(peer int)
}

// RoundStat captures the fetching progress of one node during one round,
// the quantities reported in Table 1 of the paper. It is an alias of
// obsv.RoundStat: the observability layer owns the definition and core
// re-exports it so existing call sites keep compiling.
type RoundStat = obsv.RoundStat

// NodeMetrics aggregates one node's per-slot observations. It is an
// alias of obsv.NodeView: the live view maintained by the node's
// obsv.Observer is the single source of truth, and Node.Metrics()
// returns a copy of it.
type NodeMetrics = obsv.NodeView

// inflightTTL is how long an unanswered query still counts toward a
// cell's redundancy target before other peers are asked instead. Queried
// peers that lack a cell buffer the request and reply once their own
// seeding/consolidation delivers it — typically within the builder's
// ~1 s transmission window — so expiring earlier only produces duplicate
// deliveries, while expiring much later delays recovery from genuinely
// lost responses.
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

	// liveness scores peer responsiveness; nil disables scoring (the
	// static-membership configuration).
	liveness LivenessRecorder

	// verifySeeds enables proposer-signature checks on seed messages.
	verifySeeds bool
	proposerPub ed25519.PublicKey

	// Per-slot state. The maps are cleared and reused across slots (and
	// the store reset in place) instead of reallocated: per-slot garbage
	// is what caps how many nodes fit in one process.
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
	buffered   map[blob.CellID]map[int]bool
	round      int
	lastRearm  int
	roundEnds  []time.Duration
	fetching   bool
	seedTimer  bool
	seedChunks int
	seedDone   bool
	// promised holds cells the builder's CB map says are being seeded to
	// THIS node; they are excluded from fetching until the seed batch
	// completes or goes quiet (pipelining: fetch what peers have while
	// the builder is still transmitting, without re-requesting what is
	// already on its way).
	promised map[blob.CellID]bool
	// outstanding lists the in-flight requests; unexpired entries count
	// toward the redundancy target so rounds do not re-request what is
	// already on its way.
	outstanding []inflight
	// pendingOut coalesces responses to buffered queries: cells often
	// land in bursts (seed chunks, reconstruction), and answering each
	// arrival individually would multiply message counts. A short timer
	// flushes the batch.
	pendingOut map[int][]wire.Cell
	flushArmed bool
	// cbSeeded records, per assigned line, which positions the builder's
	// CB map says were seeded SOMEWHERE; those are the cheap cells to
	// fetch and are preferred when choosing which missing cells to
	// request. One bitset per custody line, in store line order.
	cbSeeded []uint64
	// awaitReply tracks, per queried peer, the deadline by which SOME
	// response must arrive before the peer is reported to the liveness
	// scorer as timed out. Only maintained when liveness is set.
	awaitReply map[int]time.Duration
	// badPeers bans, for the rest of the slot, peers that served cells
	// failing proof verification: unlike a timeout (which exponential
	// backoff forgives), a bad proof is cryptographic evidence of
	// misbehavior, so the planner never asks the peer again this slot —
	// including across the periodic queried-set re-arm sweeps.
	badPeers map[int]bool
	// gen invalidates timers armed for an earlier lifetime of this node:
	// it increments on every StartSlot and Stop, so a node that crashes
	// and restarts within the same slot does not execute stale callbacks.
	gen uint64

	// onDone is the slot-completion event (see OnSlotDone); doneFired
	// records that it has fired since the last StartSlot.
	onDone    func()
	doneFired bool

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
	// (addCells, armFlush). All are cleared before use; none escape the
	// call that fills them. Round planning works in a planScratch borrowed
	// from planPool instead.
	touchedScr []bool // per custody line, in store line order
	flushScr   []int

	// obs maintains the current slot's metrics view and (optionally)
	// traces protocol events through cfg.Recorder.
	obs obsv.Observer

	// mRejects counts proof-verification rejects in the shared registry
	// (nil without cfg.Metrics).
	mRejects *obsv.Counter
}

// NewNode creates a node bound to a transport address. rngSeed drives the
// node's local (unpredictable to others) choices: sample selection.
func NewNode(cfg Config, index int, table *Table, tr Transport, rngSeed int64) *Node {
	n := &Node{
		cfg:   cfg,
		index: index,
		table: table,
		tr:    tr,
		rng:   rand.New(rand.NewSource(rngSeed)),
		obs:   obsv.Observer{Rec: cfg.Recorder, Node: int32(index)},
	}
	if cfg.Metrics != nil {
		n.mRejects = cfg.Metrics.Counter("fetch_corrupt_rejects_total")
	}
	return n
}

// Metrics returns the node's observations for the current slot — a copy
// of the live view the node's observer maintains.
func (n *Node) Metrics() NodeMetrics { return n.obs.View }

// SetView restricts the node's knowledge of the network. Views may be
// static predicates (membership.ViewFunc) or evolve while the slot runs
// (membership.LiveView). Passing nil restores the complete view.
func (n *Node) SetView(v membership.View) { n.view = v }

// View returns the node's current view (nil means complete).
func (n *Node) View() membership.View { return n.view }

// SetLiveness installs peer-liveness scoring: query timeouts demote
// peers and the fetch planner skips demoted ones. Passing nil disables
// scoring.
func (n *Node) SetLiveness(l LivenessRecorder) { n.liveness = l }

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
// restarted (StartSlot increments gen). Slot-number checks alone cannot
// catch a crash+restart WITHIN one slot, and they also let a timer armed
// near the end of slot s leak into slot s when the counter wraps around
// a multi-slot run; the generation counter closes both holes.
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

// StartSlot resets per-slot state: recomputes nothing (the assignment
// lives in the shared epoch table), resets the store in place, and draws
// the slot's random sample set. Fetching does not start until seed cells
// arrive, a custody query arms the seed-wait timer, or the fallback
// timer (3x SeedWait) fires.
func (n *Node) StartSlot(slot uint64) {
	n.slot = slot
	n.gen++
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
	n.buffered = resetMap(n.buffered, 0)
	n.round = 0
	n.lastRearm = 0
	n.roundEnds = n.roundEnds[:0]
	n.fetching = false
	n.seedTimer = false
	n.seedChunks = 0
	n.seedDone = false
	n.promised = resetMap(n.promised, 0)
	n.outstanding = n.outstanding[:0]
	n.cbSeeded = zeroed(n.cbSeeded, n.store.TrackedLines()*((n.cfg.Blob.N()+63)/64))
	n.pendingOut = resetMap(n.pendingOut, 0)
	n.flushArmed = false
	n.awaitReply = resetMap(n.awaitReply, 0)
	n.badPeers = resetMap(n.badPeers, 0)
	n.doneFired = false
	n.obs.BeginSlot(slot, n.tr.Now())

	// Fallback: a node the builder does not know never receives seeds and
	// may never be queried; it still must sample.
	n.afterGuarded(3*n.cfg.SeedWait, func() {
		if !n.obs.View.HasSeed && !n.fetching && !n.done() {
			n.startFetch()
		}
	})
}

// JoinSlot brings a node online partway through a slot: a joiner (or a
// restarting crasher) starts from an empty store — whatever it held
// before going down is gone — and must fetch everything it needs from
// peers. Seeding has typically already passed it by, so the StartSlot
// fallback timer is what kicks off its fetch unless a custody query or a
// straggling seed datagram arrives first.
//
// The joiner gets a new store rather than rewinding the old one: peers
// may still hold payloads the simulator passed them by reference out of
// it this slot, restored cells included, and a rewound store would decode
// its next lines over them.
func (n *Node) JoinSlot(slot uint64) {
	n.store = nil
	n.StartSlot(slot)
}

// Stop takes the node down mid-slot, as a crash or a departure does:
// every timer it armed is dropped and no round runs until the next
// StartSlot or JoinSlot. A node that kept fetching while down would count
// sends nobody receives and report every peer it queried to its liveness
// scorer as timed out.
func (n *Node) Stop() {
	n.gen++
	n.fetching = false
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

// HandleMessage dispatches a received protocol payload. It reports
// whether the payload was a PANDAS message. The message may be lent (a
// socket transport decodes in place and takes its buffer back when the
// handler returns): the node keeps nothing of it past the call — IDs and
// boost entries are copied by value, and the store copies a Borrowed
// payload when it inserts the cell.
func (n *Node) HandleMessage(from int, size int, payload any) bool {
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
	default:
		return false
	}
	return true
}

func (n *Node) onSeed(m *wire.Seed) {
	if m.Slot != n.slot || n.store == nil {
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
	// Watchdog for lost tail chunks: if no further seed datagram lands
	// within the seed-wait period, fetching starts with what we have.
	// SeedAt doubles as the generation marker, so only the timer armed by
	// the LAST chunk received fires the fetch.
	generation := now
	n.afterGuarded(n.cfg.SeedWait, func() {
		if n.obs.View.SeedAt != generation {
			return
		}
		// Seed flow went quiet without completing: any promised cells
		// that never arrived were lost — fetch them from peers.
		n.seedDone = true
		clear(n.promised)
		if !n.fetching && !n.done() {
			n.startFetch()
		}
	})
	dups, added, rejects := n.addCells(m.Cells)
	n.obs.SeedIngested(now, added, dups)
	if rejects > 0 && n.obs.Enabled() {
		// Peer -1: the rejecting batch came from the seeding path, not a
		// fetch peer (nothing to ban — seeds are already authenticated).
		n.obs.Emit(obsv.Event{At: now, Kind: obsv.KindCorruptReject,
			Peer: -1, Count: int32(rejects)})
	}
	width := n.cfg.Blob.N()
	words := (width + 63) / 64
	for _, e := range m.Boost {
		if lineNumber(e.Line, width) < 0 {
			continue // not a line of this matrix
		}
		peer := n.table.HolderAt(e.Line, int(e.HolderRef))
		if peer < 0 {
			continue
		}
		end := min(int(e.Start)+int(e.Count), width)
		// Only custody lines are ever asked about (missingCells).
		if li := n.store.lineIndex(e.Line); li >= 0 {
			seeded := n.cbSeeded[li*words : (li+1)*words]
			for p := int(e.Start); p < end; p++ {
				seeded[p/64] |= 1 << uint(p%64)
			}
		}
		if peer == n.index {
			// Our own parcels: the builder is sending these cells to us.
			// Once the seed flow is over (batch complete, or the watchdog
			// gave up on it) a straggling datagram promises nothing:
			// recording it would keep its cells out of F for the rest of
			// the slot.
			if !n.seedDone {
				for pos := int(e.Start); pos < end; pos++ {
					n.promised[cellOnLine(e.Line, pos)] = true
				}
			}
			continue
		}
		n.boost = append(n.boost, boostParcel{peer: int32(peer), line: e.Line,
			start: e.Start, count: uint16(end - min(int(e.Start), end))})
	}
	if n.seedChunks >= int(m.ChunkCount) {
		// Full batch landed: everything still missing is fair game.
		n.seedDone = true
		clear(n.promised)
	}
	// The reception of seed cells triggers consolidation and sampling
	// (Fig. 5). Cells still being transmitted by the builder are excluded
	// from F via the promised set, so the pipeline starts immediately
	// without re-requesting in-flight seed data.
	if !n.fetching && !n.done() {
		n.startFetch()
	} else if n.fetching && n.seedDone {
		n.updateCompletion()
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
	if m.Slot != n.slot || n.store == nil {
		return
	}
	// The reply is sized before it is built: it is one allocation whether
	// it carries one cell or a datagram's worth.
	held := 0
	for _, id := range m.Cells {
		if n.store.Has(id) {
			held++
		}
	}
	have := make([]wire.Cell, 0, held)
	for _, id := range m.Cells {
		if c, ok := n.store.Peek(id); ok {
			have = append(have, c)
			continue
		}
		if n.store.Covered(id) {
			// Assigned but not yet received: buffer, reply when it lands
			// (no negative acknowledgements).
			reqs, ok := n.buffered[id]
			if !ok {
				reqs = make(map[int]bool, 1)
				n.buffered[id] = reqs
			}
			reqs[from] = true
		}
	}
	n.sendCells(from, have)

	// A request for a slot we have no seed cells for arms the seed-wait
	// timer (Section 6.2): if the builder's seeds never arrive (packet
	// loss, or the builder does not know this node), fetching starts
	// regardless. The timer is generous — three seed-wait periods — so
	// that nodes seeded late in the builder's ~1 s transmission schedule
	// still start from their seed batch rather than from nothing, which
	// keeps round-1 queries aimed at peers that already hold data (the
	// paper's Table 1 dynamics).
	if !n.obs.View.HasSeed && !n.fetching && !n.seedTimer {
		n.seedTimer = true
		n.afterGuarded(3*n.cfg.SeedWait, func() {
			if !n.obs.View.HasSeed && !n.fetching && !n.done() {
				n.startFetch()
			}
		})
	}
}

func (n *Node) onResponse(from int, m *wire.Response) {
	if m.Slot != n.slot || n.store == nil {
		return
	}
	// Any response — even an empty or partial one — settles the reply
	// deadline; whether it counts for or against the peer depends on
	// whether its cells verify.
	delete(n.awaitReply, from)
	var dups, added, rejects int
	round := 0
	// Attribute the reply to the round in which the peer was queried.
	if qr, ok := n.queryRound.get(uint32(from)); ok && qr >= 1 && int(qr) <= len(n.roundEnds) {
		r := int(qr)
		round = r
		stat := &n.obs.View.Rounds[r-1]
		inRound := n.tr.Now() <= n.roundEnds[r-1]
		if inRound {
			stat.RepliesInRound++
			stat.CellsInRound += len(m.Cells)
		} else {
			stat.RepliesAfterRound++
			stat.CellsAfterRound += len(m.Cells)
		}
		dups, added, rejects = n.addCells(m.Cells)
		stat.Duplicates += dups
	} else {
		dups, added, rejects = n.addCells(m.Cells)
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
		// report garbage rather than success to the liveness scorer.
		n.badPeers[from] = true
		if n.liveness != nil {
			n.liveness.ReportGarbage(from)
		}
		if n.obs.Enabled() {
			n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindCorruptReject,
				Peer: int32(from), Round: int32(round), Count: int32(rejects)})
		}
		return
	}
	if n.liveness != nil {
		n.liveness.ReportSuccess(from)
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
			if n.mRejects != nil {
				n.mRejects.Inc()
			}
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
	// in ascending order — which is store line order.
	recon := 0
	for li, hit := range touched {
		if !hit {
			continue
		}
		newCells, err := n.store.TryReconstruct(n.store.lineAt(li))
		if err != nil {
			continue
		}
		recon += len(newCells)
		for i := range newCells {
			n.cellLanded(newCells[i].ID, nil)
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
	n.armFlush()
	n.updateCompletion()
	return dups, added, rejects
}

// armFlush schedules a coalesced transmission of buffered-query replies.
func (n *Node) armFlush() {
	if n.flushArmed || len(n.pendingOut) == 0 {
		return
	}
	n.flushArmed = true
	n.afterGuarded(flushDelay, func() {
		n.flushArmed = false
		recipients := n.flushScr[:0]
		for to := range n.pendingOut {
			recipients = append(recipients, to)
		}
		slices.Sort(recipients)
		n.flushScr = recipients
		for _, to := range recipients {
			n.sendCells(to, n.pendingOut[to])
		}
		clear(n.pendingOut)
	})
}

// cellLanded performs the bookkeeping for one newly present cell. Its
// in-flight requests need none: a present cell is never in F again, so
// they count toward nothing and expire where they are.
func (n *Node) cellLanded(id blob.CellID, touched []bool) {
	if n.pendingSmp[id] {
		delete(n.pendingSmp, id)
	}
	if reqs, ok := n.buffered[id]; ok {
		full, _ := n.store.Peek(id)
		for to := range reqs {
			n.pendingOut[to] = append(n.pendingOut[to], full)
		}
		delete(n.buffered, id)
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

// updateCompletion records consolidation and sampling completion times.
func (n *Node) updateCompletion() {
	now := n.tr.Now()
	if !n.obs.View.Consolidated && n.store.CompleteLines() == n.store.TrackedLines() {
		n.obs.ConsolidationDone(now)
	}
	if !n.obs.View.Sampled && len(n.pendingSmp) == 0 {
		n.obs.SamplingDone(now, len(n.samples))
	}
	if n.onDone != nil && !n.doneFired && n.done() {
		n.doneFired = true
		n.onDone()
	}
}

func (n *Node) done() bool {
	if n.cfg.DisableConsolidation {
		return n.obs.View.Sampled
	}
	return n.obs.View.Consolidated && n.obs.View.Sampled
}

// DeliverCustody ingests custody cells that arrived outside the PANDAS
// seeding path (e.g. via the GossipSub baseline's topic meshes). It
// triggers the sampling fetcher on first delivery.
func (n *Node) DeliverCustody(cells []wire.Cell) {
	if n.store == nil {
		return
	}
	n.addCells(cells)
	if !n.fetching && !n.done() {
		n.startFetch()
	}
}

// sendCells transmits cells to a peer in datagram-sized chunks.
func (n *Node) sendCells(to int, cells []wire.Cell) {
	for len(cells) > 0 {
		chunk := cells
		if len(chunk) > n.cfg.MaxCellsPerMsg {
			chunk = cells[:n.cfg.MaxCellsPerMsg]
		}
		cells = cells[len(chunk):]
		m := &wire.Response{Slot: n.slot, Cells: chunk}
		size := m.WireSize(n.cfg.Blob.CellBytes)
		n.obs.View.FetchMsgsSent++
		n.obs.View.FetchBytesSent += int64(size)
		n.tr.Send(to, size, m)
	}
}

// startFetch begins the adaptive fetching process (consolidation and
// sampling share it).
func (n *Node) startFetch() {
	n.fetching = true
	n.fetchRound(true)
}

// runRound executes one round of Algorithm 1 and schedules the next.
func (n *Node) runRound() { n.fetchRound(false) }

// fetchRound is runRound; first marks the round startFetch runs, whose F
// is recorded as the initial fetch set.
func (n *Node) fetchRound(first bool) {
	if n.store == nil || !n.fetching {
		n.fetching = false
		return
	}
	ps := planPool.Get().(*planScratch)
	defer planPool.Put(ps)
	F := n.missingCells(ps)
	if first {
		n.obs.View.InitialFetchSet = len(F)
	}
	// Record cumulative coverage for the round that just ended (also when
	// the fetch completed during it).
	if n.round >= 1 && n.round <= len(n.obs.View.Rounds) && n.obs.View.InitialFetchSet > 0 {
		n.obs.View.Rounds[n.round-1].CoverageAfter =
			1 - float64(len(F))/float64(n.obs.View.InitialFetchSet)
	}
	if n.done() {
		n.fetching = false
		return
	}
	if n.round >= n.cfg.Schedule.MaxRounds {
		n.fetching = false
		return
	}
	n.round++
	// Sweep expired reply deadlines: a peer queried more than inflightTTL
	// ago with no response of any kind is reported to the liveness scorer,
	// which puts it into exponential backoff (and re-arms it later via the
	// queryable-set sweep below).
	if n.liveness != nil {
		now := n.tr.Now()
		for peer, deadline := range n.awaitReply {
			if now >= deadline {
				delete(n.awaitReply, peer)
				n.liveness.ReportTimeout(peer)
			}
		}
	}
	if len(F) == 0 {
		n.updateCompletion()
		n.fetching = false
		return
	}
	stat := RoundStat{}
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
	// The round's queries travel as one block each of messages and cell
	// IDs: receivers keep the messages until they are delivered, so the
	// memory cannot come from scratch, but it need not be one allocation
	// per query either.
	msgs, asked := 0, 0
	for _, q := range plan {
		msgs += (len(q.Cells) + n.cfg.MaxCellsPerMsg - 1) / n.cfg.MaxCellsPerMsg
		asked += len(q.Cells)
	}
	queries := make([]wire.Query, 0, msgs)
	cellIDs := make([]blob.CellID, 0, asked)
	for _, q := range plan {
		peer := q.Peer
		lastQueried, _ := n.queryRound.ref(uint32(peer))
		*lastQueried = int32(n.round)
		if n.liveness != nil {
			if _, waiting := n.awaitReply[peer]; !waiting {
				n.awaitReply[peer] = n.tr.Now() + inflightTTL
			}
		}
		first := len(cellIDs)
		for _, idx := range q.Cells {
			cellIDs = append(cellIDs, F[idx])
		}
		cells := cellIDs[first:len(cellIDs):len(cellIDs)]
		stat.CellsRequested += len(cells)
		for len(cells) > 0 {
			chunk := cells
			if len(chunk) > n.cfg.MaxCellsPerMsg {
				chunk = cells[:n.cfg.MaxCellsPerMsg:n.cfg.MaxCellsPerMsg]
			}
			cells = cells[len(chunk):]
			queries = append(queries, wire.Query{Slot: n.slot, Cells: chunk})
			m := &queries[len(queries)-1]
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
	n.afterGuarded(timeout, n.runRound)
}
