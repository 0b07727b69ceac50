// Package fetch implements the adaptive fetching strategy of PANDAS
// (Section 7, Algorithm 1) as pure, independently testable logic.
//
// Fetching proceeds in rounds. Round i has a timeout t_i and a redundancy
// factor k_i: every missing cell should be requested from k_i distinct
// peers before the node sleeps t_i and re-plans. Early rounds are cautious
// (k_1 = 1, t_1 = 400 ms, giving seeded peers time to respond); later
// rounds grow aggressive as the 4-second deadline nears (timeouts halve
// to a 100 ms floor, redundancy climbs by two per round to a cap of 10).
//
// The three steps of a round are:
//
//	scoring:  each queryable peer is scored by how many missing cells its
//	          custody covers, plus cb_boost for every missing cell the
//	          builder's consolidation-boost map says was seeded to it;
//	planning: peers are considered in descending score order and greedily
//	          assigned the missing cells they cover until every cell has
//	          k_i planned queries (or peers run out);
//	execution: one Query message per planned peer (performed by the
//	          caller); each peer is queried at most once between re-arms
//	          of the queryable set (the caller re-arms it every few
//	          rounds, and sooner when a round finds nobody to ask).
package fetch

import (
	"slices"
	"time"
)

// Default schedule parameters from the paper.
const (
	// DefaultCBBoost is the score bonus per boosted cell; it dwarfs any
	// plain coverage score so seeded peers are contacted first.
	DefaultCBBoost = 10000
	// DefaultMaxRounds caps the number of fetch rounds (t_50 in the
	// paper).
	DefaultMaxRounds = 50
	// MaxRedundancy is the redundancy ceiling k_max.
	MaxRedundancy = 10
)

// Schedule supplies per-round timeouts and redundancy factors.
type Schedule struct {
	// Timeouts holds t_1, t_2, ...; rounds beyond the slice reuse the
	// last entry.
	Timeouts []time.Duration
	// Redundancy holds k_1, k_2, ...; rounds beyond the slice reuse the
	// last entry.
	Redundancy []int
}

// DefaultSchedule returns the paper's adaptive schedule:
// t = 400, 200, 100, 100, ... ms and k = 1, 2, 4, 6, 8, 10, 10, ...
func DefaultSchedule() Schedule {
	return Schedule{
		Timeouts: []time.Duration{
			400 * time.Millisecond,
			200 * time.Millisecond,
			100 * time.Millisecond,
		},
		Redundancy: []int{1, 2, 4, 6, 8, MaxRedundancy},
	}
}

// ConstantSchedule returns the non-adaptive baseline used in Fig. 11:
// fixed timeout and fixed redundancy every round.
func ConstantSchedule(timeout time.Duration, redundancy int) Schedule {
	return Schedule{
		Timeouts:   []time.Duration{timeout},
		Redundancy: []int{redundancy},
	}
}

// Timeout returns t_round (1-based). Out-of-range rounds clamp to the
// nearest defined value.
func (s Schedule) Timeout(round int) time.Duration {
	if len(s.Timeouts) == 0 {
		return 100 * time.Millisecond
	}
	if round < 1 {
		round = 1
	}
	if round > len(s.Timeouts) {
		round = len(s.Timeouts)
	}
	return s.Timeouts[round-1]
}

// RedundancyAt returns k_round (1-based), clamped like Timeout.
func (s Schedule) RedundancyAt(round int) int {
	if len(s.Redundancy) == 0 {
		return 1
	}
	if round < 1 {
		round = 1
	}
	if round > len(s.Redundancy) {
		round = len(s.Redundancy)
	}
	return s.Redundancy[round-1]
}

// Candidate is a queryable peer from the node's view, described by which
// of the currently missing cells it covers. Cells are indices into the
// caller's missing-cell list (0..numCells-1).
type Candidate struct {
	// Peer is an opaque peer handle returned in the plan.
	Peer int
	// Cells lists the missing-cell indices this peer's custody covers.
	Cells []int
	// Boosted is the number of those cells the consolidation-boost map
	// says were seeded directly to this peer.
	Boosted int
}

// score implements lines 4-9 of Algorithm 1.
func (c Candidate) score(cbBoost int) int {
	return len(c.Cells) + c.Boosted*cbBoost
}

// Query is one planned query: ask Peer for the given missing-cell
// indices.
type Query struct {
	Peer  int
	Cells []int
}

// Plan implements the planning step (lines 10-17 of Algorithm 1): sort
// candidates by descending score, then greedily pick peers while any cell
// has fewer than k planned queries. A chosen peer is asked for ALL of its
// cells of interest that are still under-redundant.
//
// numCells is the size of the missing-cell index space; k the round's
// redundancy factor. Candidates must not repeat peers.
func Plan(candidates []Candidate, numCells, k, cbBoost int) []Query {
	if numCells == 0 || k <= 0 || len(candidates) == 0 {
		return nil
	}
	sorted := make([]Candidate, len(candidates))
	copy(sorted, candidates)
	slices.SortStableFunc(sorted, func(a, b Candidate) int {
		return b.score(cbBoost) - a.score(cbBoost)
	})

	counts := make([]int, numCells) // planned queries per cell
	under := numCells               // cells with counts[c] < k
	var plan []Query
	for _, cand := range sorted {
		if under == 0 {
			break
		}
		var ask []int
		for _, cell := range cand.Cells {
			if cell < 0 || cell >= numCells {
				continue
			}
			if counts[cell] < k {
				ask = append(ask, cell)
				counts[cell]++
				if counts[cell] == k {
					under--
				}
			}
		}
		if len(ask) > 0 {
			plan = append(plan, Query{Peer: cand.Peer, Cells: ask})
		}
	}
	return plan
}

// Scored is a peer with a precomputed score, for PlanLazyFrom.
type Scored struct {
	Peer int
	// Score must fit in an int32: PlanLazyInto ranks a candidate by one
	// 64-bit key holding its score and its position.
	Score int
}

// Liveness supplies peer-quality knowledge to the scoring step. Under
// dynamic membership a node's view contains peers that have already
// departed (crashes are never announced and crawls re-surface stale
// entries); Liveness is how the fetcher avoids burning round budget on
// them. Implemented by membership.Scorer.
type Liveness interface {
	// Queryable reports whether the peer may be queried now; false while
	// the peer sits in timeout backoff.
	Queryable(peer int) bool
	// Penalty returns a score deduction for the peer — zero for healthy
	// peers, growing with recorded failures for flaky ones.
	Penalty(peer int) int
}

// ApplyLiveness folds liveness knowledge into scored candidates: peers
// in backoff are dropped entirely, and re-armed peers with a failure
// history are demoted by their penalty (floored at score 1 so they stay
// eligible as a last resort). The slice is filtered in place. A nil
// liveness returns the input unchanged. onSkip, when not nil, is invoked
// for every peer dropped for its backoff (the observability layer traces
// these as peer-demoted events).
func ApplyLiveness(scored []Scored, l Liveness, onSkip func(peer int)) []Scored {
	if l == nil {
		return scored
	}
	out := scored[:0]
	for _, s := range scored {
		if !l.Queryable(s.Peer) {
			if onSkip != nil {
				onSkip(s.Peer)
			}
			continue
		}
		if p := l.Penalty(s.Peer); p > 0 {
			s.Score -= p
			if s.Score < 1 {
				s.Score = 1
			}
		}
		out = append(out, s)
	}
	return out
}

// Exclude drops candidates the banned predicate matches. Unlike liveness
// backoff (temporary, forgiving), exclusion is unconditional: the caller
// uses it for peers caught misbehaving cryptographically — serving cells
// that fail proof verification — which no score demotion should ever
// resurrect. The slice is filtered in place. A nil predicate returns the
// input unchanged.
func Exclude(scored []Scored, banned func(peer int) bool) []Scored {
	if banned == nil {
		return scored
	}
	out := scored[:0]
	for _, s := range scored {
		if banned(s.Peer) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// PlanScratch holds the buffers one planning call works in, so that a
// caller planning round after round allocates nothing. The zero value is
// ready to use. A plan returned by PlanLazyInto aliases its scratch and
// is valid until the scratch is used again.
type PlanScratch struct {
	heap  []uint64
	cells []int
	plan  []Query
}

// rankKey packs a candidate into one selection-heap key: its score,
// sign-biased so that unsigned order is signed order, in the high half
// and its complemented position in the caller's scored slice in the low
// half. A larger key is ahead, which is exactly the (score descending,
// position ascending) order a stable descending sort of the input
// produces. The score must fit in an int32; PlanLazyInto panics on one
// that does not rather than plan in a different order.
func rankKey(score, pos int) uint64 {
	if int(int32(score)) != score {
		panic("fetch: candidate score outside the int32 range")
	}
	return uint64(uint32(score)^1<<31)<<32 | uint64(^uint32(pos))
}

// rankPos recovers the input position from a key.
func rankPos(key uint64) int { return int(^uint32(key)) }

// siftDown restores the max-heap property below position i. Keys are
// distinct (positions are), so the order is total.
func siftDown(h []uint64, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[c] < x {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// PlanLazyFrom is the allocation-frugal equivalent of Plan used at large
// scales: candidate cell lists are materialized only for peers actually
// considered, via the cellsOf callback. cellsOf must return the
// missing-cell indices the peer covers (the same list Plan would have
// received), and scores must equal Candidate.score for the plans to be
// identical.
//
// counts holds pre-existing per-cell redundancy: cells that already have
// k or more outstanding (in-flight) queries are not re-requested this
// round. This is what keeps duplicate deliveries low when responses
// straggle across round boundaries — the paper's Table 1 shows per-round
// duplicates in the low hundreds, which is only possible if in-flight
// requests count toward the redundancy target. counts is modified in
// place and its length defines the cell index space.
func PlanLazyFrom(scored []Scored, counts []int, k int, cellsOf func(peer int) []int) []Query {
	var s PlanScratch
	return PlanLazyInto(&s, scored, counts, k, cellsOf)
}

// PlanLazyInto is PlanLazyFrom working in caller-owned scratch. The slice
// cellsOf returns is read before cellsOf is called again, so it may be a
// buffer the callback reuses.
//
// Candidates are considered in descending score order, equal scores in
// input order. The greedy loop usually stops after a few of them (it
// needs only enough peers to bring every cell to k), so the order is
// produced lazily: a heap of one-word keys (rankKey) is built in O(n)
// and popped once per candidate considered, O(n + considered·log n)
// where sorting all of them up front cost O(n log n). Scores must fit
// in an int32.
//
// cellsOf may leave out cells whose count has already reached k: the
// loop skips them anyway. A callback that reads counts to do so sees
// them as they stand before its list is applied.
func PlanLazyInto(s *PlanScratch, scored []Scored, counts []int, k int, cellsOf func(peer int) []int) []Query {
	numCells := len(counts)
	if numCells == 0 || k <= 0 || len(scored) == 0 {
		return nil
	}
	under := 0
	for _, c := range counts {
		if c < k {
			under++
		}
	}
	if under == 0 {
		return nil
	}
	if cap(s.heap) < len(scored) {
		s.heap = make([]uint64, len(scored))
	}
	h := s.heap[:len(scored)]
	for i, c := range scored {
		h[i] = rankKey(c.Score, i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	cells := s.cells[:0]
	plan := s.plan[:0]
	for under > 0 && len(h) > 0 {
		peer := scored[rankPos(h[0])].Peer
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if last > 0 {
			siftDown(h, 0)
		}

		start := len(cells)
		for _, cell := range cellsOf(peer) {
			if cell < 0 || cell >= numCells {
				continue
			}
			if counts[cell] < k {
				cells = append(cells, cell)
				counts[cell]++
				if counts[cell] == k {
					under--
				}
			}
		}
		if len(cells) > start {
			// Capped, so that a caller appending to one query's cells
			// cannot write into the next query's.
			plan = append(plan, Query{Peer: peer, Cells: cells[start:len(cells):len(cells)]})
		}
	}
	s.cells, s.plan = cells, plan
	if len(plan) == 0 {
		return nil
	}
	return plan
}
