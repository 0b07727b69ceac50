package core

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/fetch"
	"pandas/internal/obsv"
)

// This file is the per-round planning path of Algorithm 1: compute the
// fetch set F (missingCells), score the holders of every line crossing F
// and plan the round's queries (planRound). It runs once per node per
// round, which makes it the simulator's hottest code, so it keeps four
// rules:
//
//   - nothing on this path is keyed by a hashed blob.Line or blob.CellID
//     map: lines index flat arrays by their dense number, cells and peers
//     go through stampTable;
//   - nothing is cleared by walking it: tables and line arrays carry a
//     generation stamp and empty in O(1);
//   - nothing is sized by the node count: every structure is sized by
//     len(F), by the candidates actually scored, by the 2N lines of the
//     matrix or by the node's custody lines;
//   - per-round working memory belongs to no node. It is borrowed from
//     planPool for the duration of one round, so a single-threaded
//     simulation of any size plans in one scratch.

// stampTable is an open-addressed hash table from uint32 keys to int32
// values that empties in O(1): every occupied slot carries the generation
// it was written in, and reset starts a new generation. It holds at most
// half its slots, grows by doubling, and never shrinks.
type stampTable struct {
	// keys[i] is generation<<32 | key; any other generation in the high
	// half means the slot is free. Generation 0 is never current, so a
	// zeroed array is empty.
	keys  []uint64
	vals  []int32
	gen   uint32
	n     int
	shift uint8
}

// stampTableMinBits sizes a table on first use (16 slots).
const stampTableMinBits = 4

// reset empties the table.
func (t *stampTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		// Wrapped: stamps from 2^32 resets ago would read as current.
		clear(t.keys)
		t.gen = 1
	}
}

// home is the slot a key hashes to (Fibonacci hashing: peers and cell
// coordinates are small consecutive integers, the multiply spreads them).
func (t *stampTable) home(key uint32) int {
	return int((key * 0x9e3779b1) >> t.shift)
}

// ref returns the value slot for key, inserting a zero value if the key
// is absent; fresh reports an insertion. The pointer is valid until the
// next ref.
func (t *stampTable) ref(key uint32) (v *int32, fresh bool) {
	if (t.n+1)*2 > len(t.keys) {
		t.grow()
	}
	want := uint64(t.gen)<<32 | uint64(key)
	mask := len(t.keys) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch k := t.keys[i]; {
		case k == want:
			return &t.vals[i], false
		case uint32(k>>32) != t.gen:
			t.keys[i] = want
			t.vals[i] = 0
			t.n++
			return &t.vals[i], true
		}
	}
}

// get looks a key up.
func (t *stampTable) get(key uint32) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	want := uint64(t.gen)<<32 | uint64(key)
	mask := len(t.keys) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch k := t.keys[i]; {
		case k == want:
			return t.vals[i], true
		case uint32(k>>32) != t.gen:
			return 0, false
		}
	}
}

// grow doubles the table (or creates it) and re-inserts the current
// generation's entries.
func (t *stampTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	bits := stampTableMinBits
	for 1<<bits < 2*len(oldKeys) {
		bits++
	}
	t.keys = make([]uint64, 1<<bits)
	t.vals = make([]int32, 1<<bits)
	t.shift = uint8(32 - bits)
	if t.gen == 0 {
		t.gen = 1
	}
	t.n = 0
	for i, k := range oldKeys {
		if uint32(k>>32) == t.gen {
			v, _ := t.ref(uint32(k))
			*v = oldVals[i]
		}
	}
}

// zeroed returns a zeroed slice of length n, reusing buf's array when it
// is large enough.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// cellKey packs a cell's coordinates into a stampTable key.
func cellKey(id blob.CellID) uint32 { return uint32(id.Row)<<16 | uint32(id.Col) }

// rejected marks, in planScratch.peers, a holder that was examined this
// round and that queryable rejected, so that the next line it appears on
// does not examine it again.
const rejected = -1

// planLine is one line crossing F: the F indices on it are
// planScratch.lineCells[start:end], in F order.
type planLine struct {
	line       blob.Line
	start, end int32
}

// boostGroup is one peer's CB parcels on lines crossing F:
// planScratch.parcelIdx[start:end] indexes them in Node.boost, in arrival
// order.
type boostGroup struct {
	peer       int32
	start, end int32
	cov        int32 // base score of a fallback admission
}

// planScratch is the working memory of one round of one node. See the
// rules at the top of this file for what may live here.
type planScratch struct {
	// F is the fetch set and cellIdx maps each of its cells to its index;
	// missingCells fills both, planRound reads them.
	F       []blob.CellID
	cellIdx stampTable

	// lines lists the lines crossing F in first-encounter order (F order,
	// row before column). lineOrd finds a line's entry by dense line
	// number and is valid where lineGen holds the current lineStamp.
	lines     []planLine
	lineCells []int32
	lineOrd   []int32
	lineGen   []uint32
	lineStamp uint32

	// peers maps every holder examined this round to its index in scored
	// or to rejected. boostSpan runs parallel to scored: the range of
	// boostCells the builder's CB map says the peer was seeded with.
	peers      stampTable
	scored     []fetch.Scored
	boostSpan  [][2]int32
	boostCells []int

	// groups lists the peers with CB parcels on lines crossing F, in
	// first-arrival order; boostOf finds a peer's group and parcelGroup
	// holds each parcel's group (-1: its line crosses no cell of F).
	groups      []boostGroup
	parcelIdx   []int32
	parcelGroup []int32
	boostOf     stampTable
	admit       []int32 // groups admitted past the holder window

	stamp    []int // per F index: dedup marks (positive: boostPeer, negative: cellsOf)
	samples  []int // F indices that are pending samples
	counts   []int // per F index: in-flight queries, then this round's too
	k        int   // the round's redundancy factor
	before   []int // counts as they were before this round's plan
	cellsOut []int // cellsOf's result
	plan     fetch.PlanScratch

	missing []int // Store.MissingOnLine buffer
}

// planPool lends planScratch values to rounds. A simulation runs every
// node on one goroutine and so reuses one scratch for all of them, warm
// in cache; the UDP runtimes hold one per node goroutine at most.
var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// lineNumber is the dense number of a line in [0, 2N): rows first. It
// returns -1 for a line outside the matrix (boost entries arrive off the
// wire).
func lineNumber(l blob.Line, n int) int {
	if int(l.Index) >= n {
		return -1
	}
	switch l.Kind {
	case blob.Row:
		return int(l.Index)
	case blob.Col:
		return n + int(l.Index)
	}
	return -1
}

// groupLines rebuilds lines/lineCells from F.
func (ps *planScratch) groupLines(n int) {
	if len(ps.lineGen) != 2*n {
		ps.lineGen = make([]uint32, 2*n)
		ps.lineOrd = make([]int32, 2*n)
		ps.lineStamp = 0
	}
	ps.lineStamp++
	if ps.lineStamp == 0 {
		clear(ps.lineGen)
		ps.lineStamp = 1
	}
	lines := ps.lines[:0]
	// First pass: discover lines in order and count their cells (in end).
	for _, id := range ps.F {
		for _, l := range [2]blob.Line{{Kind: blob.Row, Index: id.Row}, {Kind: blob.Col, Index: id.Col}} {
			d := lineNumber(l, n)
			if ps.lineGen[d] != ps.lineStamp {
				ps.lineGen[d] = ps.lineStamp
				ps.lineOrd[d] = int32(len(lines))
				lines = append(lines, planLine{line: l})
			}
			lines[ps.lineOrd[d]].end++
		}
	}
	// Counts to offsets; end then advances as the second pass fills.
	at := int32(0)
	for i := range lines {
		c := lines[i].end
		lines[i].start, lines[i].end = at, at
		at += c
	}
	ps.lineCells = slices.Grow(ps.lineCells[:0], int(at))[:at]
	for i, id := range ps.F {
		for _, d := range [2]int{int(id.Row), n + int(id.Col)} {
			pl := &lines[ps.lineOrd[d]]
			ps.lineCells[pl.end] = int32(i)
			pl.end++
		}
	}
	ps.lines = lines
}

// groupBoost rebuilds groups/parcelIdx from a node's CB parcels, which
// the node keeps in arrival order: two passes and a table probe per
// parcel, with nothing to maintain as seed chunks arrive. A parcel on a
// line that crosses no cell of F names no cell to boost or to admit a
// peer for, so it is left out: a round groups only the parcels of the
// lines it still fetches on, and a peer with none of those has no group.
// groupLines must have run.
func (ps *planScratch) groupBoost(parcels []boostParcel, width int) {
	ps.boostOf.reset()
	groups := ps.groups[:0]
	ps.parcelGroup = slices.Grow(ps.parcelGroup[:0], len(parcels))[:len(parcels)]
	for i, p := range parcels {
		if len(ps.cellsOn(p.line, width)) == 0 {
			ps.parcelGroup[i] = -1
			continue
		}
		v, fresh := ps.boostOf.ref(uint32(p.peer))
		if fresh {
			*v = int32(len(groups))
			groups = append(groups, boostGroup{peer: p.peer})
		}
		ps.parcelGroup[i] = *v
		groups[*v].end++
	}
	at := int32(0)
	for i := range groups {
		c := groups[i].end
		groups[i].start, groups[i].end = at, at
		at += c
	}
	ps.parcelIdx = slices.Grow(ps.parcelIdx[:0], int(at))[:at]
	for i, gi := range ps.parcelGroup {
		if gi < 0 {
			continue
		}
		g := &groups[gi]
		ps.parcelIdx[g.end] = int32(i)
		g.end++
	}
	ps.groups = groups
}

// cellsOn returns the F indices on a line (nil if the line crosses no
// cell of F).
func (ps *planScratch) cellsOn(l blob.Line, n int) []int32 {
	d := lineNumber(l, n)
	if d < 0 || ps.lineGen[d] != ps.lineStamp {
		return nil
	}
	pl := ps.lines[ps.lineOrd[d]]
	return ps.lineCells[pl.start:pl.end]
}

// addCell appends a cell to F unless it is already there, and reports
// whether it did.
func (ps *planScratch) addCell(id blob.CellID) bool {
	v, fresh := ps.cellIdx.ref(cellKey(id))
	if fresh {
		*v = int32(len(ps.F))
		ps.F = append(ps.F, id)
	}
	return fresh
}

// candidate appends a scored peer and returns its index. A score is at
// most |F|·(2 + fetch.DefaultCBBoost): each cell of F counts once per
// line of the peer's crossing it and is boosted once. At paper geometry
// F holds at most the 8,192 cells of 8+8 custody lines plus 73 samples,
// so about 8.2·10⁷, far inside the int32 that fetch ranks scores in.
func (ps *planScratch) candidate(peer, score int) int32 {
	ps.scored = append(ps.scored, fetch.Scored{Peer: peer, Score: score})
	ps.boostSpan = append(ps.boostSpan, [2]int32{})
	return int32(len(ps.scored) - 1)
}

// inflight is the requests one round made for one cell: n of them, which
// count toward the cell's redundancy target until they expire (planRound
// drops them then).
type inflight struct {
	cell   uint32 // cellKey
	n      int32
	expiry time.Duration
}

// wasQueried reports whether the peer has been queried since the last
// re-arm of the queryable set. Re-arming does not erase anything: it
// moves lastRearm to the current round, and queries of earlier rounds
// stop counting.
func (n *Node) wasQueried(peer int) bool {
	r, ok := n.queryRound.get(uint32(peer))
	return ok && int(r) >= n.lastRearm
}

// queryable applies the Q <- V filters of Algorithm 1 to one holder. It
// rejects, in this order, the node itself, a peer queried since the last
// re-arm, a peer outside the view, a peer banned this slot for a bad
// proof and a peer in backoff; only the last is traced (KindPeerDemoted),
// and only the first time within one backoff.
func (n *Node) queryable(peer int) bool {
	if peer == n.index || n.wasQueried(peer) ||
		n.view != nil && !n.view.Contains(peer) || n.badPeers[peer] {
		return false
	}
	if h, ok := n.health[peer]; ok && h.until > n.tr.Now() {
		if n.obs.Enabled() && !h.demoted {
			h.demoted = true
			n.health[peer] = h
			n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindPeerDemoted,
				Peer: int32(peer), Round: int32(n.round)})
		}
		return false
	}
	return true
}

// fetchHedgeDiv sizes a custody line's fetch surplus: a line D cells
// short of K asks for D + ⌈D/fetchHedgeDiv⌉ cells.
const fetchHedgeDiv = 4

// missingCells computes F into ps: custody cells not yet present plus
// samples not yet present.
func (n *Node) missingCells(ps *planScratch) []blob.CellID {
	ps.F = ps.F[:0]
	ps.cellIdx.reset()
	if !n.cfg.DisableConsolidation {
		width := n.cfg.Blob.N()
		half := n.cfg.Blob.K
		for li := 0; li < n.store.TrackedLines(); li++ {
			l, ls := n.store.lineAt(li), &n.store.lines[li]
			have := ls.count
			if have >= width {
				continue
			}
			// Rational fetching: a line reconstructs from any K of its 2K
			// cells, so request only the deficit to K rather than every
			// missing one — the erasure code supplies the rest. Cells the
			// builder has promised this node (its own CB parcels, still in
			// flight) count as good as received: the seed path is exempt
			// from loss, so they need no hedge. What is fetched is hedged
			// by a quarter of the deficit against lost and late replies.
			deficit := half - have
			if !n.seedOver {
				for w, own := range ls.own {
					deficit -= bits.OnesCount64(own &^ ls.bits[w]) // promised, not held
				}
			}
			if deficit <= 0 {
				// Held and promised cells reach the threshold;
				// reconstruction fires as soon as the promised ones land.
				continue
			}
			needed := deficit + (deficit+fetchHedgeDiv-1)/fetchHedgeDiv
			ps.missing = n.store.MissingOnLine(l, ps.missing)
			missing := ps.missing
			// Prefer positions the builder actually seeded somewhere, and
			// rotate the starting point with the round number so that a
			// cell that turns out to be unobtainable (lost response, dead
			// holder) does not pin the same subset forever.
			picked, off := 0, (n.round*13)%len(missing) // have < width: missing is not empty
			for pass := 0; pass < 2 && picked < needed; pass++ {
				for i := range missing {
					if picked >= needed {
						break
					}
					pos := missing[(i+off)%len(missing)]
					// A missing cell is promised iff its own bit is set while
					// the seed flow is open.
					if (pass == 0) != hasBit(ls.cbSeeded, pos) || !n.seedOver && hasBit(ls.own, pos) {
						continue
					}
					if ps.addCell(cellOnLine(l, pos)) {
						picked++
					}
				}
			}
		}
	}
	for _, id := range n.samples {
		if n.pendingSmp[id] && !n.promised(id) && !n.store.Has(id) {
			ps.addCell(id)
		}
	}
	return ps.F
}

// planRound builds scored candidates over the holders of every line that
// intersects F (ps.F, as missingCells left it) and plans queries with the
// round's redundancy factor. The plan aliases ps.
func (n *Node) planRound(ps *planScratch) []fetch.Query {
	F := ps.F
	width := n.cfg.Blob.N()
	// Group F by line (both the row and the column of each cell can
	// serve it).
	ps.groupLines(width)
	// Score candidate peers: coverage per shared line plus boost. The
	// scan over each line's holders is windowed at maxLineCandidates —
	// in a dense deployment (small grid, huge N) a line can have
	// thousands of holders, and scoring all of them made planning the
	// simulator's dominant cost, O(N²) across the cluster per round. The
	// window rotates with (node, round, line), so retries reach different
	// peers each round; at the paper's geometry (a handful of holders per
	// line) every holder is scored.
	//
	// Candidates accumulate into scored in first-encounter order — lines
	// in F order, holders in window order — which is deterministic by
	// construction, and PlanLazyInto breaks equal scores by that order,
	// so ties resolve identically across runs. Each holder costs one
	// probe of ps.peers per line it appears on; queryable runs once per
	// holder per round, so scored holds only peers the round may ask.
	ps.peers.reset()
	ps.scored = ps.scored[:0]
	ps.boostSpan = ps.boostSpan[:0]
	ps.boostCells = ps.boostCells[:0]
	truncated := false
	for _, pl := range ps.lines {
		cover := int(pl.end - pl.start)
		holders := n.table.Holders(pl.line)
		span := len(holders)
		off := 0
		if span > maxLineCandidates {
			truncated = true
			off = scanOffset(n.index, n.round, pl.line, span)
			span = maxLineCandidates
		}
		for j := 0; j < span; j++ {
			at := off + j
			if at >= len(holders) {
				at -= len(holders)
			}
			peer := holders[at]
			v, fresh := ps.peers.ref(uint32(peer))
			switch {
			case !fresh:
				if *v != rejected {
					ps.scored[*v].Score += cover
				}
			case n.queryable(peer):
				*v = ps.candidate(peer, cover)
			default:
				*v = rejected
			}
		}
	}
	ps.stamp = zeroed(ps.stamp, len(F))
	n.applyBoost(ps, truncated)
	// A peer with failures on record, re-armed, ranks lower by its
	// penalty, floored at 1 so that it stays a last resort. With
	// consolidation, a custodian asked for a cell it lacks gets it soon,
	// so re-asking the best-scored peers after a re-arm is sound. Without
	// it, a custodian holds only what seeding (or the GossipSub
	// baseline's meshes) gave it, and the same peers, asked in the same
	// order, may never hold the cell: a peer asked before the re-arm
	// ranks below every peer not yet asked.
	requery := n.cfg.DisableConsolidation && n.lastRearm > 0
	if len(n.health) > 0 || requery {
		for i := range ps.scored {
			s := &ps.scored[i]
			if h, ok := n.health[s.Peer]; ok {
				s.Score = max(s.Score-h.failures*healthPenalty, 1)
			}
			if requery {
				if _, asked := n.queryRound.get(uint32(s.Peer)); asked {
					s.Score -= requeryDemotion
				}
			}
		}
	}

	// Sample cells have no CB entries; boosted peers may still cover
	// them through their assignments.
	ps.samples = ps.samples[:0]
	for i, id := range F {
		if n.pendingSmp[id] {
			ps.samples = append(ps.samples, i)
		}
	}
	k := n.cfg.Schedule.RedundancyAt(n.round)
	// Unexpired in-flight queries count toward each cell's redundancy.
	// One pass drops the expired requests and counts the live ones; a
	// request for a cell that has since landed stays until it expires but
	// finds no cell of F to count toward.
	now := n.tr.Now()
	ps.counts = zeroed(ps.counts, len(F))
	counts := ps.counts
	live := n.outstanding[:0]
	for _, q := range n.outstanding {
		if q.expiry <= now {
			continue
		}
		live = append(live, q)
		if i, ok := ps.cellIdx.get(q.cell); ok {
			counts[i] += int(q.n)
		}
	}
	n.outstanding = live
	ps.before = append(ps.before[:0], counts...)
	ps.k = k
	plan := fetch.PlanLazyInto(&ps.plan, ps.scored, counts, k, func(peer int) []int {
		return n.cellsOf(ps, peer)
	})
	ttl := inflightTTL
	if n.cfg.DisableConsolidation && n.seedOver {
		// inflightTTL waits for a custodian that buffered the ask to be
		// served by seeding or consolidation. Without consolidation and
		// once seeding is over, nothing will serve it: an ask that is not
		// answered within the round is not answered at all.
		ttl = n.cfg.Schedule.Timeout(n.round)
	}
	expiry := now + ttl
	for i, was := range ps.before {
		if asked := counts[i] - was; asked > 0 {
			n.outstanding = append(n.outstanding, inflight{cell: cellKey(F[i]), n: int32(asked), expiry: expiry})
		}
	}
	return plan
}

// applyBoost is the consolidation-boost step of scoring: peers the
// builder's CB map lists as seeded with cells still missing get the
// cb_boost bonus per such cell, and — crucially — the query planned for
// them targets exactly their seeded cells, so round 1 pulls every cell
// from a peer that already HAS it rather than from a peer that would
// buffer the request until its own consolidation finishes.
func (n *Node) applyBoost(ps *planScratch, truncated bool) {
	width := n.cfg.Blob.N()
	ps.groupBoost(n.boost, width)
	boostedPeers, boostedCells := 0, 0
	boost := func(g boostGroup, idx int32) {
		if got := n.boostPeer(ps, g, idx); got > 0 {
			boostedPeers++
			boostedCells += got
		}
	}
	admit := ps.admit[:0]
	for gi, g := range ps.groups {
		idx, seen := ps.peers.get(uint32(g.peer))
		switch {
		case seen && idx == rejected:
		case seen:
			boost(g, idx)
		case truncated:
			// A full scan never misses a queryable holder of a line
			// crossing F. A windowed one can have sampled the peer out,
			// and a CB-listed holder is exactly who round 1 must reach:
			// admit it, if queryable, with its parcel coverage as the
			// base score.
			cov := 0
			parcels := ps.parcelIdx[g.start:g.end]
			for pi, p := range parcels {
				line := n.boost[p].line
				dup := false
				for _, q := range parcels[:pi] {
					if n.boost[q].line == line {
						dup = true
						break
					}
				}
				if !dup {
					cov += len(ps.cellsOn(line, width))
				}
			}
			if cov > 0 {
				ps.groups[gi].cov = int32(cov)
				admit = append(admit, int32(gi))
			}
		}
	}
	// Admissions append to scored, whose order breaks score ties: admit
	// in ascending peer order, whatever order the parcels arrived in,
	// which is also the order queryable traces the demoted ones in.
	slices.SortFunc(admit, func(a, b int32) int { return int(ps.groups[a].peer) - int(ps.groups[b].peer) })
	for _, gi := range admit {
		g := ps.groups[gi]
		if !n.queryable(int(g.peer)) {
			continue
		}
		idx := ps.candidate(int(g.peer), int(g.cov))
		v, _ := ps.peers.ref(uint32(g.peer))
		*v = idx
		boost(g, idx)
	}
	ps.admit = admit
	if n.obs.Enabled() && boostedPeers > 0 {
		n.obs.Emit(obsv.Event{At: n.tr.Now(), Kind: obsv.KindBoostPromotion,
			Peer: -1, Round: int32(n.round), Count: int32(boostedPeers),
			Aux: int64(boostedCells)})
	}
}

// boostPeer records which cells of F the peer's parcels cover — in parcel
// arrival order, then position order, each cell once — and raises its
// score accordingly. It returns how many there are. Only parcels on lines
// crossing F are probed: groupBoost left the others out.
func (n *Node) boostPeer(ps *planScratch, g boostGroup, idx int32) int {
	mark := int(g.start) + 1 // positive and distinct per group
	first := len(ps.boostCells)
	for _, pi := range ps.parcelIdx[g.start:g.end] {
		p := n.boost[pi]
		for pos := int(p.start); pos < int(p.start)+int(p.count); pos++ {
			if i, ok := ps.cellIdx.get(cellKey(cellOnLine(p.line, pos))); ok && ps.stamp[i] != mark {
				ps.stamp[i] = mark
				ps.boostCells = append(ps.boostCells, int(i))
			}
		}
	}
	got := len(ps.boostCells) - first
	if got > 0 {
		ps.boostSpan[idx] = [2]int32{int32(first), int32(len(ps.boostCells))}
		ps.scored[idx].Score += got * fetch.DefaultCBBoost
	}
	return got
}

// cellsOf lists the F indices a planned query to the peer should ask
// for: a CB-boosted peer's seeded cells (plus any pending samples its
// custody covers), any other peer's whole coverage of F. Cells whose
// count has reached the round's k are left out: fetch.PlanLazyInto
// updates ps.counts in place and would skip them, and since no index
// appears twice in one list, none reaches k between this call and the
// loop reading it. The result is valid until the next call.
func (n *Node) cellsOf(ps *planScratch, peer int) []int {
	out := ps.cellsOut[:0]
	counts, k := ps.counts, ps.k
	idx, _ := ps.peers.get(uint32(peer))
	if span := ps.boostSpan[idx]; span[1] > span[0] {
		bc := ps.boostCells[span[0]:span[1]]
		for _, i := range bc {
			if counts[i] < k {
				out = append(out, i)
			}
		}
		var a assign.Assignment
		loaded := false
		for _, s := range ps.samples {
			if counts[s] >= k || slices.Contains(bc, s) {
				continue
			}
			if !loaded {
				a, loaded = n.table.Assignment(peer), true
			}
			if a.Covers(ps.F[s]) {
				out = append(out, s)
			}
		}
		ps.cellsOut = out
		return out
	}
	a := n.table.Assignment(peer)
	width := n.cfg.Blob.N()
	mark := -(peer + 1)
	for _, r := range a.Rows {
		out = ps.appendUnmarked(out, blob.Line{Kind: blob.Row, Index: r}, width, mark)
	}
	for _, c := range a.Cols {
		out = ps.appendUnmarked(out, blob.Line{Kind: blob.Col, Index: c}, width, mark)
	}
	ps.cellsOut = out
	return out
}

// appendUnmarked appends the F indices on a line that are still under k
// and whose stamp is not mark, and marks them.
func (ps *planScratch) appendUnmarked(out []int, l blob.Line, width, mark int) []int {
	for _, i := range ps.cellsOn(l, width) {
		if ps.counts[i] < ps.k && ps.stamp[i] != mark {
			ps.stamp[i] = mark
			out = append(out, int(i))
		}
	}
	return out
}

// requeryDemotion is subtracted from the score of a peer asked before
// the last re-arm when consolidation is disabled. It exceeds any score
// (see candidate), and a demoted score stays inside the int32 that
// fetch ranks scores in.
const requeryDemotion = 1 << 30

// maxLineCandidates bounds how many holders of one line planRound
// scores. The redundancy ceiling is fetch.MaxRedundancy (10), so 64
// candidates per line leave ample slack for liveness demotions and
// banned peers while keeping planning O(lines) instead of O(N). See
// the comment at the scoring loop.
const maxLineCandidates = 64

// scanOffset picks the rotating window start for a line's holder scan:
// deterministic in (node, round, line) so runs are reproducible, varied
// across rounds so successive retries sample different holders.
func scanOffset(self, round int, l blob.Line, n int) int {
	x := uint64(self)*0x9e3779b97f4a7c15 ^
		uint64(round)*0xc2b2ae3d27d4eb4f ^
		(uint64(l.Index)<<3|uint64(l.Kind))*0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
