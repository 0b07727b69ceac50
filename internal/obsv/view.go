package obsv

import "time"

// RoundStat captures the fetching progress of one node during one round,
// the quantities reported in Table 1 of the paper.
type RoundStat struct {
	MsgsSent          int
	CellsRequested    int
	RepliesInRound    int
	RepliesAfterRound int
	CellsInRound      int
	CellsAfterRound   int
	Duplicates        int
	Reconstructed     int
	// CoverageAfter is the cumulative fraction of the node's initial
	// fetch set satisfied when the NEXT round began.
	CoverageAfter float64
}

// NodeView aggregates one node's per-slot observations. It is the
// unified read surface of the observability layer: the protocol updates
// it through an Observer while (optionally) tracing the same transitions
// as Events, so a live view and a reconstructed Timeline agree by
// construction. core.Node.Metrics returns a copy of it.
type NodeView struct {
	// Phase completion (absolute virtual times; valid when the Has* /
	// Consolidated / Sampled flags are set).
	FirstSeedAt    time.Duration
	SeedAt         time.Duration // last seed datagram received
	ConsolidatedAt time.Duration
	SampledAt      time.Duration
	HasSeed        bool
	Consolidated   bool
	Sampled        bool

	// Seeding counters.
	SeedCells      int
	SeedDuplicates int

	// Fetch-phase traffic (queries + responses, both directions),
	// excluding seeding. This is the quantity of Fig. 10.
	FetchMsgsSent  int
	FetchMsgsRecv  int
	FetchBytesSent int64
	FetchBytesRecv int64

	// CorruptRejects counts cells rejected for failing proof
	// verification (garbage responses from byzantine peers). Rejected
	// cells never count as ingested; they stay missing and are re-fetched
	// from other peers.
	CorruptRejects int

	// Rounds holds per-round statistics (Table 1).
	Rounds []RoundStat

	// InitialFetchSet is |F| when fetching began.
	InitialFetchSet int
}

// Observer maintains one participant's NodeView and mirrors its phase
// transitions into a Recorder. It is embedded by value in core.Node: the
// view IS the node's metrics, and tracing is the optional side channel.
// With a nil Rec every Emit is a single nil check.
type Observer struct {
	// View is the live per-slot aggregate.
	View NodeView
	// Rec receives trace events; nil disables tracing.
	Rec Recorder
	// Node is stamped into every emitted event.
	Node int32
	// Slot is stamped into every emitted event; updated by BeginSlot.
	Slot uint64
}

// Emit stamps the observer's node and slot into e and records it. Does
// nothing when Rec is nil; callers building non-trivial events should
// guard with Enabled to keep the disabled path at one comparison.
func (o *Observer) Emit(e Event) {
	if o.Rec == nil {
		return
	}
	e.Node = o.Node
	e.Slot = o.Slot
	o.Rec.Record(e)
}

// Enabled reports whether tracing is on (Rec non-nil).
func (o *Observer) Enabled() bool { return o.Rec != nil }

// BeginSlot resets the view for a new (or re-entered) slot and emits
// KindSlotStart.
func (o *Observer) BeginSlot(slot uint64, now time.Duration) {
	o.Slot = slot
	o.View = NodeView{}
	if o.Rec != nil {
		o.Emit(Event{At: now, Kind: KindSlotStart, Peer: -1})
	}
}

// SeedChunk records one seed datagram's arrival times and cell count.
// It updates the view only: the matching CellsReceived event is emitted
// by SeedIngested once duplicates are known.
func (o *Observer) SeedChunk(now time.Duration, cells int) {
	if !o.View.HasSeed {
		o.View.HasSeed = true
		o.View.FirstSeedAt = now
	}
	o.View.SeedAt = now
	o.View.SeedCells += cells
}

// SeedIngested accounts a seed batch after store ingestion and emits the
// KindCellsReceived event (Src seed) carrying added and duplicate
// counts.
func (o *Observer) SeedIngested(now time.Duration, added, dups int) {
	o.View.SeedDuplicates += dups
	if o.Rec != nil {
		o.Emit(Event{At: now, Kind: KindCellsReceived, Src: SrcSeed,
			Peer: -1, Count: int32(added), Aux: int64(dups)})
	}
}

// ConsolidationDone marks custody consolidation complete.
func (o *Observer) ConsolidationDone(now time.Duration) {
	o.View.Consolidated = true
	o.View.ConsolidatedAt = now
	if o.Rec != nil {
		o.Emit(Event{At: now, Kind: KindConsolidated, Peer: -1})
	}
}

// SamplingDone marks sampling complete and emits the sample verdict
// (Aux=1: all samples satisfied — the only verdict a completed slot
// reaches today).
func (o *Observer) SamplingDone(now time.Duration, samples int) {
	o.View.Sampled = true
	o.View.SampledAt = now
	if o.Rec != nil {
		o.Emit(Event{At: now, Kind: KindSampleVerdict, Peer: -1,
			Count: int32(samples), Aux: 1})
	}
}
