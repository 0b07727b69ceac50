package fetch

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultScheduleMatchesPaper(t *testing.T) {
	s := DefaultSchedule()
	wantT := []time.Duration{
		400 * time.Millisecond, // t1
		200 * time.Millisecond, // t2
		100 * time.Millisecond, // t3
		100 * time.Millisecond, // t4 (clamped)
		100 * time.Millisecond, // t5
	}
	for i, want := range wantT {
		if got := s.Timeout(i + 1); got != want {
			t.Errorf("t%d = %v, want %v", i+1, got, want)
		}
	}
	wantK := []int{1, 2, 4, 6, 8, 10, 10, 10}
	for i, want := range wantK {
		if got := s.RedundancyAt(i + 1); got != want {
			t.Errorf("k%d = %d, want %d", i+1, got, want)
		}
	}
}

func TestConstantSchedule(t *testing.T) {
	s := ConstantSchedule(400*time.Millisecond, 1)
	for round := 1; round <= 10; round++ {
		if s.Timeout(round) != 400*time.Millisecond || s.RedundancyAt(round) != 1 {
			t.Fatalf("round %d not constant", round)
		}
	}
}

func TestScheduleEmptyAndClamping(t *testing.T) {
	var s Schedule
	if s.Timeout(1) != 100*time.Millisecond {
		t.Fatal("empty schedule timeout default wrong")
	}
	if s.RedundancyAt(3) != 1 {
		t.Fatal("empty schedule redundancy default wrong")
	}
	d := DefaultSchedule()
	if d.Timeout(0) != d.Timeout(1) || d.RedundancyAt(-1) != d.RedundancyAt(1) {
		t.Fatal("low rounds should clamp to round 1")
	}
}

func TestPlanSingleRedundancy(t *testing.T) {
	cands := []Candidate{
		{Peer: 1, Cells: []int{0, 1, 2}},
		{Peer: 2, Cells: []int{2, 3}},
		{Peer: 3, Cells: []int{3}},
	}
	plan := Plan(cands, 4, 1, DefaultCBBoost)
	// Peer 1 covers 0,1,2; peer 2 then covers 3 only (2 already planned).
	if len(plan) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].Peer != 1 || len(plan[0].Cells) != 3 {
		t.Fatalf("first query = %+v", plan[0])
	}
	if plan[1].Peer != 2 || len(plan[1].Cells) != 1 || plan[1].Cells[0] != 3 {
		t.Fatalf("second query = %+v", plan[1])
	}
	if Coverage(plan, 4) != 4 {
		t.Fatal("full coverage expected")
	}
}

func TestPlanRespectsRedundancyFactor(t *testing.T) {
	cands := []Candidate{
		{Peer: 1, Cells: []int{0}},
		{Peer: 2, Cells: []int{0}},
		{Peer: 3, Cells: []int{0}},
	}
	plan := Plan(cands, 1, 2, DefaultCBBoost)
	if len(plan) != 2 {
		t.Fatalf("want 2 queries for k=2, got %+v", plan)
	}
	// With k larger than the peer count, all peers are used.
	plan = Plan(cands, 1, 5, DefaultCBBoost)
	if len(plan) != 3 {
		t.Fatalf("want all 3 peers, got %+v", plan)
	}
}

func TestPlanBoostDominates(t *testing.T) {
	// Peer 2 covers fewer cells but one is boosted: it must be contacted
	// first (cb_boost = 10,000 dwarfs coverage).
	cands := []Candidate{
		{Peer: 1, Cells: []int{0, 1, 2, 3, 4}},
		{Peer: 2, Cells: []int{5}, Boosted: 1},
	}
	plan := Plan(cands, 6, 1, DefaultCBBoost)
	if plan[0].Peer != 2 {
		t.Fatalf("boosted peer not ranked first: %+v", plan)
	}
}

func TestPlanZeroBoostFallsBackToCoverage(t *testing.T) {
	cands := []Candidate{
		{Peer: 1, Cells: []int{0}},
		{Peer: 2, Cells: []int{0, 1}},
	}
	plan := Plan(cands, 2, 1, 0)
	if plan[0].Peer != 2 {
		t.Fatalf("coverage ordering broken: %+v", plan)
	}
}

func TestPlanEdgeCases(t *testing.T) {
	if Plan(nil, 5, 1, 0) != nil {
		t.Fatal("nil candidates should plan nothing")
	}
	if Plan([]Candidate{{Peer: 1, Cells: []int{0}}}, 0, 1, 0) != nil {
		t.Fatal("zero cells should plan nothing")
	}
	if Plan([]Candidate{{Peer: 1, Cells: []int{0}}}, 1, 0, 0) != nil {
		t.Fatal("zero redundancy should plan nothing")
	}
	// Out-of-range cell indices are ignored rather than panicking.
	plan := Plan([]Candidate{{Peer: 1, Cells: []int{-1, 7, 0}}}, 1, 1, 0)
	if len(plan) != 1 || len(plan[0].Cells) != 1 || plan[0].Cells[0] != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestPlanStableTieBreak(t *testing.T) {
	// Equal scores: input order must be preserved (deterministic plans).
	cands := []Candidate{
		{Peer: 5, Cells: []int{0}},
		{Peer: 3, Cells: []int{1}},
		{Peer: 9, Cells: []int{2}},
	}
	plan := Plan(cands, 3, 1, DefaultCBBoost)
	if plan[0].Peer != 5 || plan[1].Peer != 3 || plan[2].Peer != 9 {
		t.Fatalf("tie-break not stable: %+v", plan)
	}
}

func TestPlanNeverQueriesUselessPeer(t *testing.T) {
	cands := []Candidate{
		{Peer: 1, Cells: []int{0, 1}},
		{Peer: 2, Cells: []int{0, 1}}, // fully redundant with peer 1 at k=1
	}
	plan := Plan(cands, 2, 1, 0)
	if len(plan) != 1 {
		t.Fatalf("useless peer queried: %+v", plan)
	}
}

func TestPlanPropertyEveryCellCoveredUpToK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numCells := 1 + rng.Intn(50)
		numPeers := 1 + rng.Intn(40)
		k := 1 + rng.Intn(4)
		cands := make([]Candidate, numPeers)
		avail := make([]int, numCells) // how many peers cover each cell
		for p := range cands {
			cands[p].Peer = p
			for c := 0; c < numCells; c++ {
				if rng.Float64() < 0.3 {
					cands[p].Cells = append(cands[p].Cells, c)
					avail[c]++
				}
			}
			if len(cands[p].Cells) > 0 && rng.Float64() < 0.2 {
				cands[p].Boosted = 1
			}
		}
		plan := Plan(cands, numCells, k, DefaultCBBoost)
		counts := make([]int, numCells)
		usedPeer := map[int]bool{}
		for _, q := range plan {
			if usedPeer[q.Peer] {
				return false // peer queried twice in one round
			}
			usedPeer[q.Peer] = true
			seen := map[int]bool{}
			for _, c := range q.Cells {
				if seen[c] {
					return false // duplicate cell within one query
				}
				seen[c] = true
				counts[c]++
			}
		}
		for c := 0; c < numCells; c++ {
			want := min(k, avail[c])
			if counts[c] != want {
				return false // each cell planned exactly min(k, availability) times
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverage(t *testing.T) {
	plan := []Query{{Peer: 1, Cells: []int{0, 1}}, {Peer: 2, Cells: []int{1, 2}}}
	if got := Coverage(plan, 4); got != 3 {
		t.Fatalf("Coverage = %d, want 3", got)
	}
	if got := Coverage(nil, 4); got != 0 {
		t.Fatalf("Coverage(nil) = %d", got)
	}
}

func BenchmarkPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const numCells, numPeers = 4000, 200
	cands := make([]Candidate, numPeers)
	for p := range cands {
		cands[p].Peer = p
		for c := 0; c < numCells; c++ {
			if rng.Float64() < 0.05 {
				cands[p].Cells = append(cands[p].Cells, c)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Plan(cands, numCells, 2, DefaultCBBoost)
	}
}

func TestPlanLazyMatchesPlan(t *testing.T) {
	// Differential test: PlanLazy with exact scores must produce the same
	// plan as the eager reference implementation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numCells := 1 + rng.Intn(40)
		numPeers := 1 + rng.Intn(30)
		k := 1 + rng.Intn(3)
		cands := make([]Candidate, numPeers)
		for p := range cands {
			cands[p].Peer = p
			for c := 0; c < numCells; c++ {
				if rng.Float64() < 0.25 {
					cands[p].Cells = append(cands[p].Cells, c)
				}
			}
			if rng.Float64() < 0.3 {
				cands[p].Boosted = rng.Intn(3)
			}
		}
		want := Plan(cands, numCells, k, DefaultCBBoost)
		scored := make([]Scored, numPeers)
		for p, c := range cands {
			scored[p] = Scored{Peer: c.Peer, Score: c.score(DefaultCBBoost)}
		}
		got := PlanLazy(scored, numCells, k, func(peer int) []int { return cands[peer].Cells })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Peer != want[i].Peer || len(got[i].Cells) != len(want[i].Cells) {
				return false
			}
			for j := range got[i].Cells {
				if got[i].Cells[j] != want[i].Cells[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanLazyEdgeCases(t *testing.T) {
	if PlanLazy(nil, 5, 1, nil) != nil {
		t.Fatal("nil scored should plan nothing")
	}
	if PlanLazy([]Scored{{Peer: 1, Score: 5}}, 0, 1, nil) != nil {
		t.Fatal("zero cells should plan nothing")
	}
}

// Coverage reports how many of numCells have at least one planned query
// in the plan.
func Coverage(plan []Query, numCells int) int {
	seen := make([]bool, numCells)
	covered := 0
	for _, q := range plan {
		for _, c := range q.Cells {
			if c >= 0 && c < numCells && !seen[c] {
				seen[c] = true
				covered++
			}
		}
	}
	return covered
}
