package simnet

import (
	"container/heap"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// refEvent / refHeap reimplement the pre-sharding event queue (a
// container/heap of individually allocated events) as the ordering
// oracle for the differential test below.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEngineOrderMatchesReferenceHeap drives the sharded queue and the
// old container/heap implementation with the same random schedule —
// including many exact timestamp collisions to exercise the FIFO
// tie-break — and requires the identical execution order.
func TestEngineOrderMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine(1)
	var ref refHeap
	var refSeq uint64

	const n = 5000
	var got, want []int
	for i := 0; i < n; i++ {
		// Coarse-grained times force ties; spread spans many bands so
		// several shards are populated at once.
		at := time.Duration(rng.Intn(50)) * 3 * time.Millisecond
		id := i
		e.At(at, func() { got = append(got, id) })
		refSeq++
		heap.Push(&ref, &refEvent{at: at, seq: refSeq, id: id})
	}
	e.Run(time.Second)
	for ref.Len() > 0 {
		want = append(want, heap.Pop(&ref).(*refEvent).id)
	}
	if len(got) != n || len(want) != n {
		t.Fatalf("ran %d events, reference %d, want %d", len(got), len(want), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("execution order diverges at %d: got id %d, reference id %d", i, got[i], want[i])
		}
	}
}

// TestEngineOrderWithRescheduling interleaves Run windows with events
// that schedule more events (the simulator's dominant pattern) and
// checks global (at, seq) order is still honored.
func TestEngineOrderWithRescheduling(t *testing.T) {
	e := NewEngine(7)
	var order []int
	var schedule func(depth, id int)
	schedule = func(depth, id int) {
		e.After(time.Duration(id%5)*time.Millisecond, func() {
			order = append(order, id)
			if depth < 3 {
				schedule(depth+1, id*10+1)
				schedule(depth+1, id*10+2)
			}
		})
	}
	for i := 1; i <= 8; i++ {
		schedule(0, i)
	}
	// Run in short windows so pending events straddle Run boundaries.
	for w := time.Duration(0); w < 100*time.Millisecond; w += 2 * time.Millisecond {
		e.Run(w)
	}
	e.Run(time.Second)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", e.Pending())
	}
	seen := make(map[int]bool)
	for _, id := range order {
		if seen[id] {
			t.Fatalf("event %d ran twice", id)
		}
		seen[id] = true
	}
	// 8 roots, each spawning a binary tree of depth 3: 8*(1+2+4+8).
	if len(order) != 8*15 {
		t.Fatalf("ran %d events, want %d", len(order), 8*15)
	}
}

// TestEnginePastEventsRunAtNow pins the clamping rule: scheduling in the
// past executes at the current virtual time, in FIFO seq order with
// anything else scheduled at that time.
func TestEnginePastEventsRunAtNow(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(10*time.Millisecond, func() {
		e.At(2*time.Millisecond, func() { order = append(order, "past") })
		e.At(10*time.Millisecond, func() { order = append(order, "now") })
		order = append(order, "first")
	})
	e.Run(time.Second)
	if len(order) != 3 || order[0] != "first" || order[1] != "past" || order[2] != "now" {
		t.Fatalf("order = %v, want [first past now]", order)
	}
	if e.Executed() != 3 {
		t.Fatalf("Executed() = %d, want 3", e.Executed())
	}
}

// TestEnginePoolReuse checks the backing arrays are reused: after a
// warm-up that sizes the shard heaps, steady-state At+Run cycles must
// not grow the heap allocation at all. The closure is hoisted so the
// measurement sees only the scheduler's own behavior.
func TestEnginePoolReuse(t *testing.T) {
	e := NewEngine(3)
	fn := func() {}
	// Warm up: grow every shard's backing array past steady-state size.
	for i := 0; i < 4096; i++ {
		e.At(time.Duration(i)*time.Millisecond, fn)
	}
	e.Run(5 * time.Second)

	base := e.Now()
	allocs := testing.AllocsPerRun(200, func() {
		// Interleave Run and At across several bands, as the protocol
		// stack does, and drain fully so slots are recycled.
		for i := 0; i < 64; i++ {
			e.After(time.Duration(i%7)*time.Millisecond, fn)
		}
		base += 10 * time.Millisecond
		e.Run(base)
	})
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
	if allocs > 0 {
		t.Fatalf("steady-state schedule/run allocated %v allocs per cycle, want 0", allocs)
	}
}

// TestEngineConcurrentEngines runs independent engines on separate
// goroutines under the race tier: shard pools are per-engine state and
// must not share anything mutable across instances.
func TestEngineConcurrentEngines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			e := NewEngine(seed)
			count := 0
			for i := 0; i < 1000; i++ {
				e.At(time.Duration(i%97)*time.Millisecond, func() { count++ })
			}
			e.Run(time.Second)
			if count != 1000 {
				t.Errorf("engine %d ran %d events, want 1000", seed, count)
			}
		}(int64(g))
	}
	wg.Wait()
}

// BenchmarkEngineThroughput measures raw scheduler throughput: a
// self-sustaining event population (each callback reschedules itself)
// sized like a large simulation's in-flight message count.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine(9)
	const population = 1 << 16
	var fns [population]func()
	for i := 0; i < population; i++ {
		d := time.Duration(1+i%1024) * 37 * time.Microsecond
		fns[i] = func() { e.After(d, fns[i]) }
	}
	for i := 0; i < population; i++ {
		e.After(time.Duration(i)*time.Microsecond, fns[i])
	}
	// Warm up: cycle the whole population several times so every
	// time-band shard grows to steady-state capacity (bands rotate
	// across shards as the clock advances); the measured loop is then
	// alloc-free even at -benchtime 1x.
	warm := e.Now()
	for e.Executed() < 16*population {
		warm += 10 * time.Millisecond
		e.Run(warm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Executed()
	horizon := e.Now()
	for e.Executed()-start < uint64(b.N) {
		horizon += 10 * time.Millisecond
		e.Run(horizon)
	}
	b.StopTimer()
	ran := e.Executed() - start
	if ran > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ran), "ns/event")
	}
}
