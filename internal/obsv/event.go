package obsv

import (
	"fmt"
	"time"
)

// Kind identifies the type of a trace event. The taxonomy covers every
// protocol layer: builder seeding, node receive/fetch/sample paths,
// peer-liveness transitions, membership gossip, churn and network faults.
type Kind uint8

// Event kinds. See DESIGN.md §3.7 for the full taxonomy and the fields
// each kind populates.
const (
	// KindSlotStart marks a node (re)starting a slot: emitted by
	// Node.StartSlot and again when a joiner enters mid-slot. The
	// earliest SlotStart of a slot anchors all relative durations.
	KindSlotStart Kind = iota + 1
	// KindSeedSent is one seed datagram leaving the builder. Peer is the
	// recipient, Count the cells carried, Bytes the wire size, Aux the
	// boost entries carried.
	KindSeedSent
	// KindCellsReceived is a batch of cells ingested by a node. Src says
	// how they arrived (seeding, a fetch response, or local erasure
	// reconstruction), Count is the newly added cells, Aux the
	// duplicates in the batch, Round the fetch round a response was
	// attributed to (0 outside round attribution).
	KindCellsReceived
	// KindRoundStarted marks one adaptive-fetch round beginning. Round
	// is the 1-based round number, Count the size of the missing set F,
	// Aux the number of peers queried by the round's plan.
	KindRoundStarted
	// KindBoostPromotion records that a round's plan promoted peers via
	// the builder's consolidation-boost map: Count is the number of
	// boosted peers, Aux the boosted cells. Emitted by the node's boost
	// step once its round's candidates are known, after the round's
	// KindPeerDemoted events; it counts only peers the round can ask.
	KindBoostPromotion
	// KindPeerTimeout is a peer-health transition: a queried peer's
	// reply deadline expired, or its cells failed their proofs. Peer is
	// the suspect, Count its consecutive failures, Aux the backoff
	// imposed (nanoseconds).
	KindPeerTimeout
	// KindPeerRecovered is the inverse transition: a previously demoted
	// peer answered. Count is the failure count that was cleared.
	KindPeerRecovered
	// KindPeerDemoted records that round planning skipped a peer still
	// inside its timeout backoff. Emitted by the node's queryable check
	// once per backoff: the first time a round skips the peer after the
	// KindPeerTimeout that started the backoff. Peer is the skipped peer,
	// Round the round that skipped it.
	KindPeerDemoted
	// KindConsolidated marks a node completing custody consolidation.
	KindConsolidated
	// KindSampleVerdict marks a node concluding sampling: Count is the
	// number of samples drawn, Aux is 1 when every sample was satisfied
	// (the only verdict a completed slot emits today).
	KindSampleVerdict
	// Kind 11 was view-refresh, a completed DHT crawl of a churn run's
	// view refresh; churn runs crawl no more.
	_
	// KindChurnEvent is a membership lifecycle transition; Aux holds a
	// ChurnOp value.
	KindChurnEvent
	// KindGossipMsg is a gossip frame handled by a node's router (block
	// mesh or membership-announcement mesh). Aux is 1 for duplicates.
	KindGossipMsg
	// Kind 14 was dht-msg, a DHT RPC handled by a churn run's per-node
	// Kademlia peer; churn runs host no DHT peers any more.
	_
	// KindWithheldCell records the builder withholding data for a slot:
	// emitted once per seeding, with Count the number of withheld cells
	// and Aux the total extended cells. Node is the builder's index.
	KindWithheldCell
	// KindCorruptReject records a node rejecting cells whose proof
	// verification failed. Peer is the sender (-1 for a seed batch),
	// Count the rejected cells. The rejected cells stay in the missing
	// set and are re-requested from other peers next round.
	KindCorruptReject
	// KindFaultStart marks a scenario's network fault window opening.
	// Node is -1 (the fault is network-global), Count the isolated node
	// count for a partition (0 otherwise), Aux the core.ScenarioKind code
	// (1 partition, 2 loss burst).
	KindFaultStart
	// KindFaultStop marks the matching fault clearing; fields mirror
	// KindFaultStart.
	KindFaultStop
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSlotStart:
		return "slot-start"
	case KindSeedSent:
		return "seed-sent"
	case KindCellsReceived:
		return "cells-received"
	case KindRoundStarted:
		return "round-started"
	case KindBoostPromotion:
		return "boost-promotion"
	case KindPeerTimeout:
		return "peer-timeout"
	case KindPeerRecovered:
		return "peer-recovered"
	case KindPeerDemoted:
		return "peer-demoted"
	case KindConsolidated:
		return "consolidated"
	case KindSampleVerdict:
		return "sample-verdict"
	case KindChurnEvent:
		return "churn-event"
	case KindGossipMsg:
		return "gossip-msg"
	case KindWithheldCell:
		return "withheld-cell"
	case KindCorruptReject:
		return "corrupt-reject"
	case KindFaultStart:
		return "fault-start"
	case KindFaultStop:
		return "fault-stop"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Source says how a KindCellsReceived batch arrived.
type Source uint8

// Cell sources.
const (
	// SrcNone is the zero value (event kinds without a source).
	SrcNone Source = iota
	// SrcSeed marks cells delivered by the builder's seeding.
	SrcSeed
	// SrcFetch marks cells delivered by a peer's fetch response.
	SrcFetch
	// SrcReconstruct marks cells produced by local erasure
	// reconstruction.
	SrcReconstruct
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SrcNone:
		return ""
	case SrcSeed:
		return "seed"
	case SrcFetch:
		return "fetch"
	case SrcReconstruct:
		return "reconstruct"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// ChurnOp is the lifecycle transition carried in a KindChurnEvent's Aux.
type ChurnOp int64

// Churn operations.
const (
	// ChurnJoin is a node coming online for the first time (a scenario
	// join of a node held out of the network since the run began).
	ChurnJoin ChurnOp = iota + 1
	// ChurnRestart is a departed node coming back.
	ChurnRestart
	// ChurnLeave is a graceful (announced) departure.
	ChurnLeave
	// ChurnCrash is an unannounced departure.
	ChurnCrash
)

// String implements fmt.Stringer.
func (o ChurnOp) String() string {
	switch o {
	case ChurnJoin:
		return "join"
	case ChurnRestart:
		return "restart"
	case ChurnLeave:
		return "leave"
	case ChurnCrash:
		return "crash"
	default:
		return fmt.Sprintf("ChurnOp(%d)", int64(o))
	}
}

// Event is one observation in a slot-scoped trace. The struct is flat
// and fixed-size so recorders can store it without indirection; field
// meaning is kind-specific (see the Kind constants).
type Event struct {
	// Seq is the trace-global sequence number, assigned by the recorder.
	Seq uint64 `json:"seq"`
	// At is the (virtual or real) time of the observation.
	At time.Duration `json:"at"`
	// Slot scopes the event to a consensus slot (0 when unknown, e.g.
	// liveness transitions recorded between slots).
	Slot uint64 `json:"slot"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Src qualifies KindCellsReceived batches.
	Src Source `json:"src,omitempty"`
	// Node is the observing node's index (the builder's for seeding).
	Node int32 `json:"node"`
	// Peer is the counterpart node, -1 when there is none.
	Peer int32 `json:"peer"`
	// Round is the 1-based fetch round, 0 outside round context.
	Round int32 `json:"round,omitempty"`
	// Count is the kind-specific cardinality (cells, failures, peers).
	Count int32 `json:"count,omitempty"`
	// Bytes is the wire volume involved, when meaningful.
	Bytes int64 `json:"bytes,omitempty"`
	// Aux is the kind-specific extra value (duplicates, ChurnOp, plan
	// size, backoff nanoseconds...).
	Aux int64 `json:"aux,omitempty"`
}

// String renders a compact human-readable form for debugging.
func (e Event) String() string {
	return fmt.Sprintf("%s slot=%d node=%d peer=%d at=%s count=%d aux=%d",
		e.Kind, e.Slot, e.Node, e.Peer, e.At, e.Count, e.Aux)
}
