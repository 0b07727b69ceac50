package fetch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// PlanLazy is PlanLazyFrom with no pre-existing redundancy counts. Only
// tests call it.
func PlanLazy(scored []Scored, numCells, k int, cellsOf func(peer int) []int) []Query {
	return PlanLazyFrom(scored, make([]int, numCells), k, cellsOf)
}

// planLazyStableSort is the planner PlanLazyFrom replaced, kept as the
// differential oracle: copy the candidates, stable-sort all of them by
// descending score, plan greedily. PlanLazyFrom must emit exactly its
// plans.
func planLazyStableSort(scored []Scored, counts []int, k int, cellsOf func(peer int) []int) []Query {
	numCells := len(counts)
	if numCells == 0 || k <= 0 || len(scored) == 0 {
		return nil
	}
	sorted := make([]Scored, len(scored))
	copy(sorted, scored)
	slices.SortStableFunc(sorted, func(a, b Scored) int {
		return b.Score - a.Score
	})
	under := 0
	for _, c := range counts {
		if c < k {
			under++
		}
	}
	var plan []Query
	for _, cand := range sorted {
		if under == 0 {
			break
		}
		var ask []int
		for _, cell := range cellsOf(cand.Peer) {
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

// lazyCase is one planning problem decoded from fuzz bytes or drawn from
// an rng: few distinct scores so ties dominate, counts partly pre-filled,
// cell lists with out-of-range indices and empty lists mixed in.
type lazyCase struct {
	scored []Scored
	counts []int
	k      int
	cells  map[int][]int
}

func drawLazyCase(rng *rand.Rand) lazyCase {
	numCells := rng.Intn(60) // 0 exercises the empty index space
	numPeers := rng.Intn(200)
	c := lazyCase{
		k:      1 + rng.Intn(10),
		counts: make([]int, numCells),
		cells:  make(map[int][]int, numPeers),
	}
	if rng.Intn(8) == 0 {
		c.k = 0
	}
	for i := range c.counts {
		if rng.Intn(3) == 0 {
			c.counts[i] = rng.Intn(c.k + 2)
		}
	}
	distinct := 1 + rng.Intn(6)
	density := rng.Float64() * 0.3
	for p := 0; p < numPeers; p++ {
		// Peer handles are arbitrary and not in input order.
		peer := 1000 + (p*7919)%numPeers
		score := rng.Intn(distinct)
		if rng.Intn(10) == 0 {
			score += DefaultCBBoost * (1 + rng.Intn(3))
		}
		if rng.Intn(20) == 0 {
			score = -rng.Intn(5)
		}
		// The ends of the key's score domain, often tied.
		switch rng.Intn(16) {
		case 0:
			score = math.MaxInt32
		case 1:
			score = math.MinInt32
		}
		c.scored = append(c.scored, Scored{Peer: peer, Score: score})
		if rng.Intn(10) == 0 {
			continue // empty cellsOf
		}
		var cells []int
		for cell := 0; cell < numCells; cell++ {
			if rng.Float64() < density {
				cells = append(cells, cell)
			}
		}
		switch rng.Intn(6) {
		case 0:
			cells = append(cells, -1, numCells, numCells+7)
		case 1:
			cells = append([]int{-3}, cells...)
		}
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		c.cells[peer] = cells
	}
	return c
}

// checkLazyCase plans the case with the oracle, with PlanLazyFrom and
// with PlanLazyInto over a scratch that earlier cases already used, and
// requires identical plans and identical final counts.
func checkLazyCase(t *testing.T, c lazyCase, scratch *PlanScratch) {
	t.Helper()
	cellsOf := func(peer int) []int { return c.cells[peer] }
	wantCounts := slices.Clone(c.counts)
	want := planLazyStableSort(c.scored, wantCounts, c.k, cellsOf)

	scoredBefore := slices.Clone(c.scored)
	for name, plan := range map[string]func([]int) []Query{
		"PlanLazyFrom": func(counts []int) []Query { return PlanLazyFrom(c.scored, counts, c.k, cellsOf) },
		"PlanLazyInto": func(counts []int) []Query { return PlanLazyInto(scratch, c.scored, counts, c.k, cellsOf) },
	} {
		gotCounts := slices.Clone(c.counts)
		got := plan(gotCounts)
		if !slices.EqualFunc(got, want, func(a, b Query) bool {
			return a.Peer == b.Peer && slices.Equal(a.Cells, b.Cells)
		}) {
			t.Fatalf("%s: plan differs from the stable-sort oracle\n got  %v\n want %v\n k=%d counts=%v scored=%v",
				name, got, want, c.k, c.counts, c.scored)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: nil-ness differs: got %v want %v", name, got, want)
		}
		if !slices.Equal(gotCounts, wantCounts) {
			t.Fatalf("%s: counts differ\n got  %v\n want %v", name, gotCounts, wantCounts)
		}
		if !slices.Equal(c.scored, scoredBefore) {
			t.Fatalf("%s reordered its input", name)
		}
	}
}

func TestPlanLazyFromMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	var scratch PlanScratch
	for i := 0; i < 3000; i++ {
		checkLazyCase(t, drawLazyCase(rng), &scratch)
	}
}

func FuzzPlanLazyFrom(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var scratch PlanScratch
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			checkLazyCase(t, drawLazyCase(rng), &scratch)
		}
	})
}

// TestPlanLazyRejectsScoreOutsideInt32: a score the rank key cannot hold
// panics rather than planning in some other order.
func TestPlanLazyRejectsScoreOutsideInt32(t *testing.T) {
	for _, score := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("score %d was planned", score)
				}
			}()
			PlanLazy([]Scored{{Peer: 0, Score: 1}, {Peer: 1, Score: score}}, 1, 1, func(int) []int { return []int{0} })
		}()
	}
}

// TestPlanLazyIntoPlanIsCapped pins the aliasing contract: queries share
// one backing array, and appending to one must not reach the next.
func TestPlanLazyIntoPlanIsCapped(t *testing.T) {
	var s PlanScratch
	scored := []Scored{{Peer: 0, Score: 2}, {Peer: 1, Score: 1}}
	cells := [][]int{{0, 1}, {2}}
	plan := PlanLazyInto(&s, scored, make([]int, 3), 1, func(peer int) []int { return cells[peer] })
	if len(plan) != 2 {
		t.Fatalf("plan %v", plan)
	}
	_ = append(plan[0].Cells, 99)
	if plan[1].Cells[0] != 2 {
		t.Fatalf("append to the first query overwrote the second: %v", plan)
	}
}

func TestPlanLazyIntoAllocatesNothingWarm(t *testing.T) {
	c := benchLazyCase(200, 10, 48)
	var s PlanScratch
	counts := make([]int, len(c.counts))
	cellsOf := func(peer int) []int { return c.cells[peer] }
	PlanLazyInto(&s, c.scored, counts, c.k, cellsOf)
	allocs := testing.AllocsPerRun(50, func() {
		clear(counts)
		PlanLazyInto(&s, c.scored, counts, c.k, cellsOf)
	})
	if allocs != 0 {
		t.Fatalf("warm PlanLazyInto allocated %v times per call", allocs)
	}
}

// benchLazyCase is a first-round planning problem: peers candidates over
// numCells missing cells, each covering a line's worth of them, coverage
// scores with many ties and a few boosted peers on top.
func benchLazyCase(peers, k, numCells int) lazyCase {
	rng := rand.New(rand.NewSource(int64(peers)*31 + int64(k)))
	c := lazyCase{k: k, counts: make([]int, numCells), cells: make(map[int][]int, peers)}
	for p := 0; p < peers; p++ {
		var cells []int
		start := rng.Intn(numCells)
		for j := 0; j < numCells/6; j++ {
			cells = append(cells, (start+j*5)%numCells)
		}
		score := len(cells)
		if p%40 == 0 {
			score += DefaultCBBoost * len(cells)
		}
		c.scored = append(c.scored, Scored{Peer: p, Score: score})
		c.cells[p] = cells
	}
	return c
}

// BenchmarkPlanLazyFrom measures one planning call at the two shapes the
// benchmark workloads produce: thousands of candidates of which a round
// at k=2 consumes a handful (dense), and a couple of hundred of which a
// late round at k=10 consumes most (sparse). Run with a fixed iteration
// count: -benchtime 2000x -benchmem.
func BenchmarkPlanLazyFrom(b *testing.B) {
	for _, bc := range []struct {
		name     string
		peers, k int
	}{{"5000x2", 5000, 2}, {"200x10", 200, 10}} {
		b.Run(bc.name, func(b *testing.B) {
			c := benchLazyCase(bc.peers, bc.k, 96)
			cellsOf := func(peer int) []int { return c.cells[peer] }
			counts := make([]int, len(c.counts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(counts)
				benchSink += len(PlanLazyFrom(c.scored, counts, c.k, cellsOf))
			}
		})
	}
}

var benchSink int
