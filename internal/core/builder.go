package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/kzg"
	"pandas/internal/membership"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

// SeedingReport summarizes a builder's output for one slot.
type SeedingReport struct {
	Policy      Policy
	Messages    int
	Cells       int   // cell copies sent
	Bytes       int64 // wire bytes including boost maps and headers
	NodesSeeded int
	Withheld    int // cell positions skipped by a withholding attack
}

// Builder prepares and seeds extended blob data (Section 6.1). In
// real-payload mode it holds the extended matrix, its commitment, and all
// cell proofs (Fig. 2); in metadata mode only the geometry.
type Builder struct {
	cfg   Config
	table *Table
	tr    Transport
	index int
	id    ids.NodeID
	rng   *rand.Rand

	extended   *blob.Extended
	commitment kzg.Commitment
	proofs     []kzg.Proof
	committer  *kzg.Committer // reused across slots; nil until first prepare

	// signSeed produces the proposer's signature binding this builder to
	// a slot; provided by whoever plays the proposer.
	signSeed func(slot uint64) [wire.SigSize]byte

	// withhold marks cells the builder refuses to release (a data
	// withholding attack). Nil means honest seeding.
	withhold func(blob.CellID) bool

	// view restricts the builder's knowledge of nodes; nil = complete.
	// Under churn this is the builder's BELIEVED membership: graceful
	// leaves are announced and drop out, crashes are not and keep
	// receiving (wasted) seed traffic.
	view membership.View

	// rec traces seed transmissions; nil disables tracing.
	rec obsv.Recorder
}

// NewBuilder creates a builder bound to a transport address.
func NewBuilder(cfg Config, index int, id ids.NodeID, table *Table, tr Transport, rngSeed int64) *Builder {
	return &Builder{
		cfg:   cfg,
		table: table,
		tr:    tr,
		index: index,
		id:    id,
		rng:   rand.New(rand.NewSource(rngSeed)),
		rec:   cfg.Recorder,
	}
}

// SetProposerSigner installs the proposer-provided signing function for
// seed messages. PrepareAndSeed calls it off the calling goroutine, while
// the blob is being extended.
func (b *Builder) SetProposerSigner(sign func(slot uint64) [wire.SigSize]byte) {
	b.signSeed = sign
}

// SetWithholding installs a data-withholding predicate: cells for which
// it returns true are never sent. Pass nil for honest behaviour.
func (b *Builder) SetWithholding(w func(blob.CellID) bool) { b.withhold = w }

// SetView restricts which nodes the builder knows about. Pass nil to
// restore the complete view.
func (b *Builder) SetView(v membership.View) { b.view = v }

// PrepareBlob loads real layer-2 data: extends it, commits, and computes
// all cell proofs. Only needed in real-payload mode. The extended-matrix
// backing, the committer's digest arenas, and the proof arena are all
// recycled across calls, so a builder preparing a blob per slot runs this
// with no steady-state allocation: the data is extended straight into the
// reused matrix, every payload byte is hashed exactly once (the cell
// digests feed commitment and proofs alike), and the proofs land in the
// retained arena. Extension and proving each run on GOMAXPROCS workers;
// the output is bit-identical at any worker count.
func (b *Builder) PrepareBlob(data []byte) error {
	if err := b.extendAndCommit(data); err != nil {
		return err
	}
	b.committer.ProveAll(b.commitment, b.proofs, runtime.GOMAXPROCS(0), nil)
	return nil
}

// PrepareAndSeed is the streaming form of PrepareBlob + SeedSlot. The
// seed plan does not depend on the payload, so it is built on its own
// goroutine while the blob is extended and committed; row digesting
// overlaps the column-phase encode (via the extension's row-phase hook)
// and the bottom half is digested on every core; and each seed datagram
// is built as soon as the proofs of the rows it carries are ready and
// sent with the rest of its transmit pass — the builder starts pushing
// cells into the network while the prover is still working through the
// matrix. Output is bit-identical to PrepareBlob followed by SeedSlot
// (same commitment, proofs, datagrams, report and trace events; pinned
// by test). Transport and recorder
// callbacks fire from the calling goroutine only, as with SeedSlot; the
// proposer signer, the withholding predicate and the view are consulted
// by the planning goroutine. On an extension error the plan is still
// drawn (the builder's rng advances) and then discarded.
func (b *Builder) PrepareAndSeed(slot uint64, data []byte) (SeedingReport, error) {
	var (
		plan    seedPlan
		report  SeedingReport
		planned = make(chan struct{})
	)
	go func() {
		defer close(planned)
		plan, report = b.planSeed(slot)
	}()
	if err := b.extendAndCommit(data); err != nil {
		<-planned
		return SeedingReport{}, err
	}
	n := b.cfg.Blob.N()
	tr := newRowTracker(n)
	var proving sync.WaitGroup
	proving.Add(1)
	go func() {
		defer proving.Done()
		b.committer.ProveAll(b.commitment, b.proofs, runtime.GOMAXPROCS(0), tr.rowDone)
	}()
	// The prover must be joined before returning: the builder's arenas
	// are reused next slot, and transmit waits only for the rows its
	// datagrams carry.
	defer proving.Wait()
	<-planned
	b.recordWithheld(slot, report)
	b.transmit(slot, plan, &report, tr)
	return report, nil
}

// extendAndCommit extends data into the builder's reused matrix and
// accumulates the commitment, leaving the committer's cell digests ready
// for proving and b.proofs sized. Rows are digested on GOMAXPROCS
// workers: the top half of the matrix (rows 0..K-1: data and row
// parity, final after the row phase) concurrently with the column-phase
// encode, the bottom half once the extension is done.
func (b *Builder) extendAndCommit(data []byte) error {
	p := b.cfg.Blob
	n := p.N()
	if b.committer == nil {
		b.committer = kzg.NewCommitter(n)
	} else {
		b.committer.Reset(n)
	}
	cm := b.committer
	ext, err := blob.ExtendData(p, data, blob.ExtendOptions{
		Reuse: b.extended,
		OnRowPhase: func(e *blob.Extended) {
			cm.HashRows(e, 0, p.K, runtime.GOMAXPROCS(0))
		},
	})
	if err != nil {
		return fmt.Errorf("core: builder extend: %w", err)
	}
	b.extended = ext
	cm.HashRows(ext, p.K, n, runtime.GOMAXPROCS(0))
	b.commitment = cm.Root()
	if cap(b.proofs) < n*n {
		b.proofs = make([]kzg.Proof, n*n)
	}
	b.proofs = b.proofs[:n*n]
	return nil
}

// rowTracker publishes prover progress to the transmission loop: rowDone
// marks rows complete (in any order), waitFor blocks until every row up
// to and including r is proved. The mutex also orders the prover's proof
// writes before the sender's reads.
type rowTracker struct {
	mu        sync.Mutex
	cond      *sync.Cond
	done      []bool
	watermark int // rows [0, watermark) are fully proved
}

func newRowTracker(n int) *rowTracker {
	t := &rowTracker{done: make([]bool, n)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *rowTracker) rowDone(r int) {
	t.mu.Lock()
	t.done[r] = true
	for t.watermark < len(t.done) && t.done[t.watermark] {
		t.watermark++
	}
	t.mu.Unlock()
	t.cond.Broadcast()
}

func (t *rowTracker) waitFor(r int) {
	t.mu.Lock()
	for t.watermark <= r {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Commitment returns the current blob commitment (zero in metadata mode
// unless PrepareBlob ran).
func (b *Builder) Commitment() kzg.Commitment { return b.commitment }

// CellPayload returns the wire cell for an id directly from the
// builder's prepared blob: the builder-side oracle the benchmark and the
// core tests read cells from, to spot-verify proofs, build probe inputs
// and check what nodes stored. It reports false in metadata mode (no
// prepared blob).
// The returned Data aliases the builder's extended matrix; callers
// must treat it as read-only (same contract as Store.Peek).
func (b *Builder) CellPayload(id blob.CellID) (wire.Cell, bool) {
	if b.extended == nil {
		return wire.Cell{}, false
	}
	return wire.Cell{ID: id, Data: b.extended.Cell(id), Proof: b.proofs[id.Index(b.cfg.Blob.N())]}, true
}

// SeedSlot executes the seeding phase: it assigns parcels of every line
// to holders per the configured policy, builds per-node seed messages
// with consolidation-boost maps, and transmits them.
func (b *Builder) SeedSlot(slot uint64) SeedingReport {
	plan, report := b.planSeed(slot)
	b.recordWithheld(slot, report)
	b.transmit(slot, plan, &report, nil)
	return report
}

// seedChunk is one planned seed datagram, stored in its compact planned
// form: cell IDs only (transmit's workers build the wire cells, payload
// and proof, one pass at a time into a Cells slice the datagram owns,
// which lets the pipelined path plan the whole schedule while proofs are
// still being generated) and boost runs that ALIAS the lines' shared
// entry lists. Sharing is what keeps the plan linear in the schedule
// size: a line's CB entries are built once and referenced by every
// holder's datagram, never copied per recipient (the per-recipient
// copies were quadratic — tens of GB at 100k nodes).
type seedChunk struct {
	cellIDs []blob.CellID
	boost   [][]wire.BoostEntry
	index   uint16
	count   uint16
	maxRow  int // highest cell row carried; -1 for a chunk without cells
}

type nodeSeedChunks struct {
	node   int
	chunks []seedChunk
}

// seedPlan is a complete per-node transmission schedule for one slot.
type seedPlan struct {
	nodes     []nodeSeedChunks
	maxChunks int
	sig       [wire.SigSize]byte
}

// planSeed runs the deciding half of SeedSlot: per-cell line choice,
// parcel assignment, boost maps, and datagram chunking, in a fixed rng
// order shared by the monolithic and pipelined paths (their schedules
// are bit-identical). It touches no cell payloads or proofs and neither
// the transport nor the recorder, so PrepareAndSeed runs it beside the
// blob's extension.
//
// Its state is dense: lines by the number lineNumber gives them (row r
// is r, column c is N+c), nodes by index. Lines are visited in that
// order and nodes collected in ascending order, so nothing is sorted,
// and each node's cells and each line's boost entries are one span of a
// per-slot arena cut by a counting pass. The arenas are never reused:
// the datagrams carry their cell-ID and boost slices by reference.
func (b *Builder) planSeed(slot uint64) (seedPlan, SeedingReport) {
	report := SeedingReport{Policy: b.cfg.Policy}
	n := b.cfg.Blob.N()
	half := b.cfg.Blob.K
	numNodes := b.table.NumNodes()

	// Every line's known holders, resolved once per slot; ranks[d] maps a
	// holder's index in holders[d] to its canonical rank (nil: the same).
	holders := make([][]int, 2*n)
	ranks := make([][]int, 2*n)
	for d := range holders {
		holders[d], ranks[d] = b.knownHolders(denseLine(d, n))
	}

	// Phase 1: decide, per cell, which of its two lines carries it.
	// Cells are seeded exactly once per copy set (140 MB for "single",
	// not 280), matching the paper's budget figures. The seeded square
	// (the whole matrix, or the base quadrant under the minimal policy)
	// is cut into quadrants: rows carry the top-left and bottom-right
	// ones, columns the other two. Every line then carries one contiguous
	// half of its seeded positions, so a parcel is a run of adjacent
	// positions and its boost entry names exactly the cells it holds:
	// nodes count their own parcels as good as received and ask the
	// holders of the others for precisely those cells.
	mid, seeded := n/2, n
	if b.cfg.Policy == PolicyMinimal {
		// The minimal reconstructable set: the base data quadrant.
		mid, seeded = half/2, half
	}
	// Line d carries positions[d*n : d*n+carried[d]]. The scan is
	// row-major, so every line's positions arrive in ascending order.
	positions := make([]uint16, 2*n*n)
	carried := make([]int, 2*n)
	for r := 0; r < seeded; r++ {
		for c := 0; c < seeded; c++ {
			if b.withhold != nil && b.withhold(blob.CellID{Row: uint16(r), Col: uint16(c)}) {
				report.Withheld++
				continue
			}
			// Carry the cell on the line its quadrant names — but never on a
			// line with no known holders (possible at small scales or with
			// restricted views), which would silently lose the cell.
			rowOK, colOK := len(holders[r]) > 0, len(holders[n+c]) > 0
			byRow := (r < mid) == (c < mid)
			var d, pos int
			switch {
			case rowOK && (!colOK || byRow):
				d, pos = r, c
			case colOK:
				d, pos = n+c, r
			default:
				continue // no holders at all: cell cannot be seeded
			}
			positions[d*n+carried[d]] = uint16(pos)
			carried[d]++
		}
	}

	// Phase 2: split every line's positions into contiguous parcels among
	// a random permutation of its (known) holders, with r-fold
	// replication under the redundant policy. Where the line's map is
	// sharded (boostClasses), the copies are drawn stratified: the
	// primary, then boostHolders copies from each class in turn, the
	// primary counting for its own. This pass draws from the rng and
	// counts; the fill below lays the cells and entries out.
	copies := 1
	if b.cfg.Policy == PolicyRedundant {
		copies = b.cfg.Redundancy
	}
	numCopies := 0 // each parcel goes to its primary and up to copies-1 other holders
	for d, cnt := range carried {
		numCopies += min(cnt, len(holders[d])) * max(1, min(copies, len(holders[d])))
	}
	parcels := make([]parcelCopy, 0, numCopies)
	cellEnd := make([]int, numNodes) // cells per node, then span ends
	entryEnd := make([]int, 2*n)     // boost entries per line, then span ends
	classes := make([]int, 2*n)      // classes each line's map is sharded into
	var picks []int
	var members [][]int // a sharded line's holder indices by class
	for d, cnt := range carried {
		if cnt == 0 {
			continue
		}
		hs := holders[d]
		members = boostClasses(members, len(hs), ranks[d], copies)
		classes[d] = max(1, len(members))
		perm := b.rng.Perm(len(hs))
		numParcels := min(cnt, len(hs))
		base := cnt / numParcels
		extra := cnt % numParcels
		lo := d * n
		for pi := 0; pi < numParcels; pi++ {
			hi := lo + base
			if pi < extra {
				hi++
			}
			runs := countRuns(positions[lo:hi])
			picks = append(picks[:0], perm[pi])
			switch {
			case len(members) > 0:
				picks = b.pickStratified(picks, members, rankAt(ranks[d], perm[pi])%len(members))
			case copies > 1:
				picks = b.pickExtras(picks, len(hs), copies-1)
			}
			for _, i := range picks {
				parcels = append(parcels, parcelCopy{line: int32(d), node: int32(hs[i]),
					rank: uint16(rankAt(ranks[d], i)), lo: int32(lo), hi: int32(hi)})
				cellEnd[hs[i]] += hi - lo
				entryEnd[d] += runs
			}
			lo = hi
		}
	}
	// Counts to offsets; each then advances as the fill writes its span,
	// ending at the span's end.
	cellArena := make([]blob.CellID, startOffsets(cellEnd))
	entryArena := make([]wire.BoostEntry, startOffsets(entryEnd))
	for _, p := range parcels {
		line := denseLine(int(p.line), n)
		chunk := positions[p.lo:p.hi]
		// ID only: payload and proof are materialized at transmission
		// time (see transmit).
		for _, pos := range chunk {
			cellArena[cellEnd[p.node]] = cellOnLine(line, int(pos))
			cellEnd[p.node]++
		}
		// One entry per run of adjacent positions: a parcel is a single
		// run unless withholding or a holderless crossing line took cells
		// out of its half.
		for run := chunk; len(run) > 0; {
			k := 1
			for k < len(run) && run[k] == run[k-1]+1 {
				k++
			}
			entryArena[entryEnd[p.line]] = wire.BoostEntry{
				Line:      line,
				HolderRef: p.rank,
				Start:     run[0],
				Count:     uint16(k),
			}
			entryEnd[p.line]++
			run = run[k:]
		}
	}
	// A sharded line's span is laid out class by class, each class's
	// entries in parcel order (an entry's class is its HolderRef mod s), so
	// each class's share is one sub-span. The shares are equal: each
	// parcel put boostHolders copies in each class, every copy with the
	// parcel's runs. A stable sort of the parcel copies by class does the
	// same but made planSeed a third slower at 1,000 nodes.
	var scratch []wire.BoostEntry
	for d, s := range classes {
		if s < 2 {
			continue
		}
		lo, hi := spanOf(entryEnd, d)
		scratch = append(scratch[:0], entryArena[lo:hi]...)
		at := lo
		for c := 0; c < s; c++ {
			for _, e := range scratch {
				if int(e.HolderRef)%s == c {
					entryArena[at] = e
					at++
				}
			}
		}
	}

	// Phase 3: per-node boost maps — every holder of a line receives its
	// share of the line's CB entries, even holders that got no cells: the
	// whole span, or on a sharded line the span of its class (its rank mod
	// s), which names boostHolders holders of every parcel, its own parcels
	// among them. Each holder gets a REFERENCE to the shared span, never a
	// copy: with H holders per line per-recipient copies would cost
	// O(lines x entries x H) — about 39 GB at 100k nodes and default
	// geometry — while the shared spans cost one slice header per
	// (line, holder) pair.
	boostEnd := make([]int, numNodes) // boosted lines per node, then span ends
	for d, hs := range holders {
		if lo, hi := spanOf(entryEnd, d); lo < hi {
			for _, h := range hs {
				boostEnd[h]++
			}
		}
	}
	boostArena := make([][]wire.BoostEntry, startOffsets(boostEnd))
	for d, hs := range holders {
		lo, hi := spanOf(entryEnd, d)
		if lo == hi {
			continue
		}
		share := (hi - lo) / classes[d]
		for i, h := range hs {
			at := lo + rankAt(ranks[d], i)%classes[d]*share
			boostArena[boostEnd[h]] = entryArena[at : at+share : at+share]
			boostEnd[h]++
		}
	}

	// Phase 4: transmit, in randomized node order, chunked to datagram
	// size.
	recipients := make([]int, 0, numNodes)
	for node := 0; node < numNodes; node++ {
		clo, chi := spanOf(cellEnd, node)
		blo, bhi := spanOf(boostEnd, node)
		if clo < chi || blo < bhi {
			recipients = append(recipients, node)
		}
	}
	b.rng.Shuffle(len(recipients), func(i, j int) {
		recipients[i], recipients[j] = recipients[j], recipients[i]
	})
	var plan seedPlan
	if b.signSeed != nil {
		plan.sig = b.signSeed(slot)
	}
	// Build every node's chunk sequence. Boost datagrams go FIRST: the
	// consolidation-boost map tells the node which cells are already on
	// their way to it, so its first fetch plan must see the complete map:
	// the node plans round 1 at its first cell datagram. A node's lines
	// are packed into as few boost datagrams as the datagram bound allows
	// (packBoost), and the last of them also carries the node's first
	// cells, as many as fit, so the map costs no datagram of its own. At
	// the paper's geometry a line holds one parcel per holder up to 256,
	// and a holder's share names boostHolders = 2 holders of each, 3 bytes
	// a parcel while the line's ranks are below 256 and 5 beyond: 1.3 KB a
	// line at most, so one datagram carries a node's 16 lines at any
	// network size.
	record := wire.CellWire(b.cfg.Blob.CellBytes)
	for _, node := range recipients {
		clo, chi := spanOf(cellEnd, node)
		cells := cellArena[clo:chi:chi]
		blo, bhi := spanOf(boostEnd, node)
		report.NodesSeeded++
		nc := nodeSeedChunks{node: node,
			chunks: make([]seedChunk, 0, min(bhi-blo, 1)+(len(cells)+wire.MaxCellsPerMessage-1)/wire.MaxCellsPerMessage)}
		packBoost(boostArena[blo:bhi:bhi], func(runs [][]wire.BoostEntry) {
			nc.chunks = append(nc.chunks, seedChunk{boost: runs})
		})
		if k := len(nc.chunks); k > 0 {
			last := &nc.chunks[k-1]
			room := wire.MaxDatagram + wire.OverheadIPUDP - (&wire.Seed{Boost: last.boost}).WireSize(b.cfg.Blob.CellBytes)
			if fit := min(len(cells), wire.MaxCellsPerMessage, room/record); fit > 0 {
				last.cellIDs, cells = cells[:fit:fit], cells[fit:]
			}
		}
		for len(cells) > 0 {
			chunk := cells[:min(len(cells), wire.MaxCellsPerMessage)]
			cells = cells[len(chunk):]
			nc.chunks = append(nc.chunks, seedChunk{cellIDs: chunk})
		}
		for i := range nc.chunks {
			maxRow := -1
			for _, id := range nc.chunks[i].cellIDs {
				maxRow = max(maxRow, int(id.Row))
			}
			nc.chunks[i].index, nc.chunks[i].count, nc.chunks[i].maxRow = uint16(i), uint16(len(nc.chunks)), maxRow
		}
		plan.maxChunks = max(plan.maxChunks, len(nc.chunks))
		plan.nodes = append(plan.nodes, nc)
	}
	return plan, report
}

// boostRoom is what a seed datagram without cells has for its runs.
var boostRoom = wire.MaxDatagram + wire.OverheadIPUDP - (&wire.Seed{}).WireSize(0)

// packBoost cuts a node's boost lines, in order, into the runs of its
// boost datagrams and hands each datagram's runs to emit: every
// datagram is filled as far as boostRoom allows, and a line that does not
// fit in what is left is cut between two of its parcels (see
// wire.FitBoost), its head closing the datagram and its tail opening the
// next. The runs alias the lines' entry lists, and a
// datagram's run list is a window of lines — written over in place where
// a cut leaves a tail — except that a datagram a cut closes gets its own
// list.
func packBoost(lines [][]wire.BoostEntry, emit func(runs [][]wire.BoostEntry)) {
	for len(lines) > 0 {
		room, k := boostRoom, 0
		for ; k < len(lines); k++ {
			n, size := wire.FitBoost(lines[k], room)
			if n < len(lines[k]) {
				if n == 0 && k == 0 {
					panic("core: a boost parcel larger than a datagram")
				}
				if n == 0 {
					emit(lines[:k:k])
				} else {
					emit(append(lines[:k:k], lines[k][:n]))
					lines[k] = lines[k][n:]
				}
				break
			}
			room -= size
		}
		if k == len(lines) {
			emit(lines)
		}
		lines = lines[k:]
	}
}

// parcelCopy is one copy of a parcel as planSeed plans it: the cells
// positions[lo:hi] of dense line line, sent to node, which holds the line
// at canonical rank rank.
type parcelCopy struct {
	line, node int32
	lo, hi     int32
	rank       uint16
}

// countRuns returns how many runs of adjacent positions a parcel has:
// the boost entries it takes.
func countRuns(positions []uint16) int {
	runs := 0
	for i, pos := range positions {
		if i == 0 || pos != positions[i-1]+1 {
			runs++
		}
	}
	return runs
}

// startOffsets turns per-item counts into the start offsets of the
// items' spans in one shared arena, in place, and returns the arena's
// size.
func startOffsets(counts []int) int {
	at := 0
	for i, c := range counts {
		counts[i] = at
		at += c
	}
	return at
}

// spanOf returns item i's span [lo, hi) once a fill pass has advanced
// every start offset to its span's end.
func spanOf(ends []int, i int) (lo, hi int) {
	if i > 0 {
		lo = ends[i-1]
	}
	return lo, ends[i]
}

// denseLine is lineNumber's inverse.
func denseLine(d, n int) blob.Line {
	if d < n {
		return blob.Line{Kind: blob.Row, Index: uint16(d)}
	}
	return blob.Line{Kind: blob.Col, Index: uint16(d - n)}
}

// recordWithheld traces how many cells the plan withheld, so timelines
// can correlate sampling failures with the attack that caused them.
func (b *Builder) recordWithheld(slot uint64, report SeedingReport) {
	if report.Withheld > 0 && b.rec != nil {
		n := b.cfg.Blob.N()
		b.rec.Record(obsv.Event{At: b.tr.Now(), Slot: slot,
			Kind: obsv.KindWithheldCell, Node: int32(b.index), Peer: -1,
			Count: int32(report.Withheld), Aux: int64(n * n)})
	}
}

// transmit sends a planned slot's datagrams round-robin across nodes
// (chunk 0 of every node, then chunk 1, ...). This interleaving mirrors
// a builder iterating over rows and columns: a node's first cells arrive
// early in the transmission schedule while its batch completes near the
// end, so all nodes start consolidation against peers that already hold
// their seed data. Each pass's datagrams are built on GOMAXPROCS workers,
// each taking a contiguous share of the nodes (see seedDatagram); the
// calling goroutine then sends and records the pass in node order, so the
// transport and the recorder see exactly what a serial loop shows them,
// from the caller only, and each datagram is handed to the transport
// whole and never touched again.
func (b *Builder) transmit(slot uint64, plan seedPlan, report *SeedingReport, rows *rowTracker) {
	msgs := make([]*wire.Seed, len(plan.nodes)) // one pass, by node; nil: no chunk
	workers := runtime.GOMAXPROCS(0)
	build := func(w, pass int) {
		for i := w * len(msgs) / workers; i < (w+1)*len(msgs)/workers; i++ {
			if chunks := plan.nodes[i].chunks; pass < len(chunks) {
				msgs[i] = b.seedDatagram(slot, plan.sig, &chunks[pass], rows)
			}
		}
	}
	for pass := 0; pass < plan.maxChunks; pass++ {
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func() {
				defer wg.Done()
				build(w, pass)
			}()
		}
		build(0, pass)
		wg.Wait()
		for i, m := range msgs {
			if m == nil {
				continue
			}
			msgs[i] = nil // the next pass sets only the nodes it has a chunk for
			node := plan.nodes[i].node
			size := m.WireSize(b.cfg.Blob.CellBytes)
			report.Messages++
			report.Cells += len(m.Cells)
			report.Bytes += int64(size)
			if b.rec != nil {
				b.rec.Record(obsv.Event{At: b.tr.Now(), Slot: slot,
					Kind: obsv.KindSeedSent, Node: int32(b.index),
					Peer: int32(node), Count: int32(len(m.Cells)),
					Bytes: int64(size), Aux: int64(m.BoostEntries())})
			}
			b.tr.SendReliable(node, size, m)
		}
	}
}

// seedDatagram builds the datagram of one planned chunk, on a transmit
// worker: when rows is non-nil (the pipelined path) it first waits until
// the proofs of every row the chunk carries are ready. The datagram owns
// its Cells, allocated here and filled in place; each cell's Data aliases
// the builder's extended matrix, valid until the next prepare reuses it.
func (b *Builder) seedDatagram(slot uint64, sig [wire.SigSize]byte, chunk *seedChunk, rows *rowTracker) *wire.Seed {
	if rows != nil && chunk.maxRow >= 0 {
		rows.waitFor(chunk.maxRow)
	}
	m := &wire.Seed{
		Slot:        slot,
		Builder:     b.id,
		ProposerSig: sig,
		Commitment:  b.commitment,
		ChunkIndex:  chunk.index,
		ChunkCount:  chunk.count,
		Boost:       chunk.boost,
	}
	if len(chunk.cellIDs) > 0 {
		m.Cells = make([]wire.Cell, len(chunk.cellIDs))
		n := b.cfg.Blob.N()
		for i, id := range chunk.cellIDs {
			c := &m.Cells[i]
			c.ID = id
			if b.extended != nil {
				c.Data = b.extended.Cell(id)
				c.Proof = b.proofs[id.Index(n)]
			}
		}
	}
	return m
}

// knownHolders filters a line's holders by the builder's view. ranks[i]
// is hs[i]'s canonical rank, the index into Table.Holders that boost
// entries name it by; without a view the two lists coincide and ranks is
// nil.
func (b *Builder) knownHolders(l blob.Line) (hs, ranks []int) {
	all := b.table.Holders(l)
	if b.view == nil {
		return all, nil
	}
	hs, ranks = make([]int, 0, len(all)), make([]int, 0, len(all))
	for rank, h := range all {
		if b.view.Contains(h) {
			hs = append(hs, h)
			ranks = append(ranks, rank)
		}
	}
	return hs, ranks
}

// boostHolders is h, how many holders of each parcel a holder's share of
// a sharded CB map names (DESIGN.md §8 decision 9).
const boostHolders = 2

// boostClasses sorts a line's known holders into the classes its CB map
// is sharded into and returns their indices by class, reusing members'
// storage: class c of s = copies/boostHolders holds the holders whose
// canonical rank (rankAt) is c mod s. It returns
// no classes, and every holder gets the line's whole map, unless the
// copies split into at least two classes of boostHolders and every class
// has that many holders to draw them from.
func boostClasses(members [][]int, numHolders int, ranks []int, copies int) [][]int {
	s := copies / boostHolders
	if s < 2 || copies%boostHolders != 0 {
		return members[:0]
	}
	if cap(members) < s {
		members = make([][]int, s)
	}
	members = members[:s]
	for c := range members {
		members[c] = members[c][:0]
	}
	for i := 0; i < numHolders; i++ {
		c := rankAt(ranks, i) % s
		members[c] = append(members[c], i)
	}
	for _, m := range members {
		if len(m) < boostHolders {
			return members[:0]
		}
	}
	return members
}

// rankAt is the canonical rank of a line's i-th known holder, given the
// ranks knownHolders returned for the line: ranks[i], or i when ranks is
// nil (every holder known).
func rankAt(ranks []int, i int) int {
	if ranks != nil {
		return ranks[i]
	}
	return i
}

// pickStratified appends to picks, which holds the primary's index, from
// class 0 on, distinct indices drawn from each class's members until each
// class holds boostHolders of the picks; the primary is of class primary.
func (b *Builder) pickStratified(picks []int, members [][]int, primary int) []int {
	for c, m := range members {
		want := len(picks) + boostHolders
		if c == primary {
			want--
		}
		for len(picks) < want {
			if i := m[b.rng.Intn(len(m))]; !slices.Contains(picks, i) {
				picks = append(picks, i)
			}
		}
	}
	return picks
}

// pickExtras appends count further distinct indices in [0, numHolders)
// to picks, which holds the primary's; it draws them as the rng dictates
// and never repeats a pick.
func (b *Builder) pickExtras(picks []int, numHolders, count int) []int {
	if count <= 0 || numHolders <= 1 {
		return picks
	}
	want := len(picks) + min(count, numHolders-1)
	for len(picks) < want {
		if i := b.rng.Intn(numHolders); !slices.Contains(picks, i) {
			picks = append(picks, i)
		}
	}
	return picks
}
