package membership

import (
	"time"

	"pandas/internal/obsv"
)

// Scorer parameters.
const (
	// DefaultBaseBackoff is the quarantine after a peer's first timeout;
	// each further consecutive timeout doubles it. It exceeds one
	// adaptive-fetch round, so a peer that times out once sits out at
	// least the next round.
	DefaultBaseBackoff = time.Second
	// DefaultMaxBackoff caps the exponential backoff; a peer dead for
	// several probes is effectively out for the rest of the slot.
	DefaultMaxBackoff = 30 * time.Second
	// DefaultPenalty is the score deduction per recorded failure applied
	// to a peer that is queryable again after its backoff expired.
	DefaultPenalty = 2
)

type peerScore struct {
	failures     int
	backoffUntil time.Duration
}

// Scorer tracks per-peer liveness for one node (Algorithm 1's scoring
// step, extended with failure knowledge). Query timeouts demote a peer
// with exponential backoff: while the backoff runs the peer is not
// queryable at all; once it expires the peer is re-armed — the fetcher's
// periodic queryable-set sweep retries it — but carries a score penalty
// proportional to its failure count. Any successful response resets the
// peer to healthy. State persists across slots: a peer that crashed in
// slot s is still known-bad in slot s+1.
//
// Scorer implements fetch.Liveness and core.LivenessRecorder.
type Scorer struct {
	now   func() time.Duration
	state map[int]*peerScore

	// Tracing (nil rec disables it; see obsv.Recorder).
	rec  obsv.Recorder
	node int32
	slot uint64
}

// NewScorer creates a scorer reading time from now (the simulation
// clock in practice).
func NewScorer(now func() time.Duration) *Scorer {
	return &Scorer{now: now, state: make(map[int]*peerScore)}
}

// SetRecorder installs event tracing for liveness transitions: node is
// the owning node's index, stamped into every event. Pass nil to
// disable.
func (s *Scorer) SetRecorder(rec obsv.Recorder, node int) {
	s.rec = rec
	s.node = int32(node)
}

// SetSlot updates the slot stamped into traced events (liveness state
// persists across slots, so the owner bumps this each slot).
func (s *Scorer) SetSlot(slot uint64) { s.slot = slot }

// ReportTimeout records that a query to the peer went unanswered,
// doubling its backoff.
func (s *Scorer) ReportTimeout(peer int) {
	st := s.state[peer]
	if st == nil {
		st = &peerScore{}
		s.state[peer] = st
	}
	st.failures++
	back := DefaultBaseBackoff
	for i := 1; i < st.failures && back < DefaultMaxBackoff; i++ {
		back *= 2
	}
	if back > DefaultMaxBackoff {
		back = DefaultMaxBackoff
	}
	st.backoffUntil = s.now() + back
	if s.rec != nil {
		s.rec.Record(obsv.Event{At: s.now(), Slot: s.slot,
			Kind: obsv.KindPeerTimeout, Node: s.node, Peer: int32(peer),
			Count: int32(st.failures), Aux: int64(back)})
	}
}

// ReportGarbage records that the peer served cells failing proof
// verification. Unlike a timeout — which might be congestion — garbage
// is deliberate, so the peer jumps straight to the maximum backoff with
// a failure count matching it (the score penalty a fully backed-off peer
// would carry). Liveness state persists across slots, so a garbage peer
// starts the next slot still quarantined even though the fetcher's
// per-slot ban has reset.
func (s *Scorer) ReportGarbage(peer int) {
	st := s.state[peer]
	if st == nil {
		st = &peerScore{}
		s.state[peer] = st
	}
	// Failure count equivalent to having timed out all the way up the
	// exponential ladder.
	steps := 1
	for back := DefaultBaseBackoff; back < DefaultMaxBackoff; back *= 2 {
		steps++
	}
	if st.failures < steps {
		st.failures = steps
	} else {
		st.failures++
	}
	st.backoffUntil = s.now() + DefaultMaxBackoff
	if s.rec != nil {
		s.rec.Record(obsv.Event{At: s.now(), Slot: s.slot,
			Kind: obsv.KindPeerTimeout, Node: s.node, Peer: int32(peer),
			Count: int32(st.failures), Aux: int64(DefaultMaxBackoff)})
	}
}

// ReportSuccess marks the peer healthy, clearing failures and backoff.
func (s *Scorer) ReportSuccess(peer int) {
	st := s.state[peer]
	if st == nil {
		return
	}
	delete(s.state, peer)
	// Only an actual transition (failures recorded) is worth tracing.
	if s.rec != nil && st.failures > 0 {
		s.rec.Record(obsv.Event{At: s.now(), Slot: s.slot,
			Kind: obsv.KindPeerRecovered, Node: s.node, Peer: int32(peer),
			Count: int32(st.failures)})
	}
}

// Queryable reports whether the peer may be queried now (false while in
// timeout backoff). Implements fetch.Liveness.
func (s *Scorer) Queryable(peer int) bool {
	st := s.state[peer]
	return st == nil || st.backoffUntil <= s.now()
}

// Penalty returns the score deduction for the peer (0 when healthy).
// Implements fetch.Liveness.
func (s *Scorer) Penalty(peer int) int {
	st := s.state[peer]
	if st == nil {
		return 0
	}
	return st.failures * DefaultPenalty
}

// Failures returns the peer's consecutive timeout count.
func (s *Scorer) Failures(peer int) int {
	if st := s.state[peer]; st != nil {
		return st.failures
	}
	return 0
}

// Demoted counts peers currently inside their backoff window.
func (s *Scorer) Demoted() int {
	now := s.now()
	n := 0
	for _, st := range s.state {
		if st.backoffUntil > now {
			n++
		}
	}
	return n
}
