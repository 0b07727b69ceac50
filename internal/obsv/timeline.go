package obsv

import (
	"fmt"
	"sort"
	"time"
)

// Phase selects which completion time a timeline query reads.
type Phase int

// Phases of one node's slot, matching the paper's evaluation series.
const (
	// PhaseSeed is the arrival of the node's FIRST seed data (Fig. 9a).
	PhaseSeed Phase = iota + 1
	// PhaseConsolidation is custody-consolidation completion (Fig. 9b).
	PhaseConsolidation
	// PhaseSampling is sampling completion (Fig. 9c / Fig. 15).
	PhaseSampling
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseSeed:
		return "seed"
	case PhaseConsolidation:
		return "consolidation"
	case PhaseSampling:
		return "sampling"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// NodeTimeline is one node's reconstructed slot, with absolute event
// times (-1: never happened).
type NodeTimeline struct {
	Node int
	// StartAt is the node's own SlotStart time (joiners start late).
	StartAt time.Duration
	// FirstSeedAt is the first seed-cell batch's arrival.
	FirstSeedAt time.Duration
	// ConsolidatedAt is custody-consolidation completion.
	ConsolidatedAt time.Duration
	// SampledAt is sampling completion.
	SampledAt time.Duration
	// Rounds counts fetch rounds started.
	Rounds int
	// Timeouts counts peer-timeout transitions observed.
	Timeouts int
	// CellsSeed / CellsFetch / CellsRecon split ingested cells by source.
	CellsSeed  int
	CellsFetch int
	CellsRecon int
}

// SlotTimeline is one slot reconstructed from a trace.
type SlotTimeline struct {
	Slot uint64
	// Start anchors relative durations: the earliest SlotStart in the
	// slot. Cluster drivers start every online node synchronously, so
	// this equals the driver's slot-start time.
	Start time.Duration
	nodes map[int]*NodeTimeline
}

// Node returns the given node's timeline (nil if it emitted nothing).
func (st *SlotTimeline) Node(i int) *NodeTimeline { return st.nodes[i] }

// Nodes returns the per-node timelines in ascending node order.
func (st *SlotTimeline) Nodes() []*NodeTimeline {
	out := make([]*NodeTimeline, 0, len(st.nodes))
	for _, nt := range st.nodes {
		out = append(out, nt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Durations returns the phase-completion durations relative to the slot
// start, in ascending node order — exactly the series the legacy
// NodeOutcome aggregation feeds NewDistribution. A node that
// never completed the phase yields -1 (the distribution's failure
// marker). include filters nodes (nil: all traced nodes); the cluster
// passes the same liveness filter the legacy path applies to outcomes.
func (st *SlotTimeline) Durations(p Phase, include func(node int) bool) []time.Duration {
	var out []time.Duration
	for _, nt := range st.Nodes() {
		if include != nil && !include(nt.Node) {
			continue
		}
		at := time.Duration(-1)
		switch p {
		case PhaseSeed:
			at = nt.FirstSeedAt
		case PhaseConsolidation:
			at = nt.ConsolidatedAt
		case PhaseSampling:
			at = nt.SampledAt
		}
		if at < 0 {
			out = append(out, -1)
			continue
		}
		out = append(out, at-st.Start)
	}
	return out
}

// Timeline is a trace regrouped by slot and node: the bridge from a
// recorded (or JSONL-loaded) event stream back to the per-phase duration
// series the figures aggregate.
type Timeline struct {
	slots map[uint64]*SlotTimeline
}

// NewTimeline reconstructs per-slot, per-node timelines from a trace.
// Events may arrive in any order (ring snapshots are sequence-ordered,
// JSONL files are whatever the writer dumped).
func NewTimeline(events []Event) *Timeline {
	t := &Timeline{slots: make(map[uint64]*SlotTimeline)}
	for _, e := range events {
		st := t.slots[e.Slot]
		if st == nil {
			st = &SlotTimeline{Slot: e.Slot, Start: -1, nodes: make(map[int]*NodeTimeline)}
			t.slots[e.Slot] = st
		}
		nt := st.nodes[int(e.Node)]
		if nt == nil {
			nt = &NodeTimeline{
				Node:           int(e.Node),
				StartAt:        -1,
				FirstSeedAt:    -1,
				ConsolidatedAt: -1,
				SampledAt:      -1,
			}
			st.nodes[int(e.Node)] = nt
		}
		switch e.Kind {
		case KindSlotStart:
			// A node may start a slot more than once (crash + restart);
			// keep the earliest for the anchor and the latest per node.
			if st.Start < 0 || e.At < st.Start {
				st.Start = e.At
			}
			nt.StartAt = e.At
		case KindCellsReceived:
			switch e.Src {
			case SrcSeed:
				if nt.FirstSeedAt < 0 || e.At < nt.FirstSeedAt {
					nt.FirstSeedAt = e.At
				}
				nt.CellsSeed += int(e.Count)
			case SrcFetch:
				nt.CellsFetch += int(e.Count)
			case SrcReconstruct:
				nt.CellsRecon += int(e.Count)
			}
		case KindRoundStarted:
			nt.Rounds++
		case KindPeerTimeout:
			nt.Timeouts++
		case KindConsolidated:
			if nt.ConsolidatedAt < 0 || e.At < nt.ConsolidatedAt {
				nt.ConsolidatedAt = e.At
			}
		case KindSampleVerdict:
			if nt.SampledAt < 0 || e.At < nt.SampledAt {
				nt.SampledAt = e.At
			}
		}
	}
	return t
}

// Slot returns one slot's timeline (nil if the trace has no events for
// it).
func (t *Timeline) Slot(slot uint64) *SlotTimeline { return t.slots[slot] }

// Slots returns the reconstructed slots in ascending slot order.
func (t *Timeline) Slots() []*SlotTimeline {
	out := make([]*SlotTimeline, 0, len(t.slots))
	for _, st := range t.slots {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}
