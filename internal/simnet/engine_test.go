package simnet

import (
	"container/heap"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// refEvent / refHeap / refEngine reimplement the engine over a
// container/heap of individually allocated events, with the same clock
// and clamping rules, as the ordering oracle for the differential test
// below.
type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
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

type refEngine struct {
	now time.Duration
	seq uint64
	h   refHeap
}

func (r *refEngine) Now() time.Duration { return r.now }
func (r *refEngine) Pending() int       { return r.h.Len() }

func (r *refEngine) At(t time.Duration, fn func()) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	heap.Push(&r.h, &refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refEngine) After(d time.Duration, fn func()) { r.At(r.now+d, fn) }

func (r *refEngine) Run(until time.Duration) int {
	n := 0
	for r.h.Len() > 0 && r.h[0].at <= until {
		ev := heap.Pop(&r.h).(*refEvent)
		r.now = ev.at
		ev.fn()
		n++
	}
	if r.now < until {
		r.now = until
	}
	return n
}

// scheduler is what a schedule drives: the Engine or the oracle.
type scheduler interface {
	Now() time.Duration
	At(t time.Duration, fn func())
	After(d time.Duration, fn func())
	Run(until time.Duration) int
	Pending() int
}

// firing records one event run: its id and the virtual time it ran at.
type firing struct {
	id int
	at time.Duration
}

// fixedSchedule queues 5,000 events up front — coarse times, so many
// share a timestamp and exercise the FIFO tie-break — and drains them
// in one Run.
func fixedSchedule(s scheduler) (log []firing, windows []int) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		id := i
		s.At(time.Duration(rng.Intn(50))*3*time.Millisecond, func() { log = append(log, firing{id, s.Now()}) })
	}
	windows = append(windows, s.Run(time.Second), s.Pending())
	return log, windows
}

// reschedulingSchedule is the simulator's dominant pattern: callbacks
// schedule more events — After(0), short delays, At in the past and At
// at absolute times on either side of now — while Run advances in short
// windows, so events straddle Run boundaries as the protocol's timers
// do, and each window's end schedules one more. It logs every firing
// and, per window, the events run and left pending.
func reschedulingSchedule(s scheduler) (log []firing, windows []int) {
	rng := rand.New(rand.NewSource(11))
	next := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := next
		next++
		return func() {
			log = append(log, firing{id, s.Now()})
			if depth == 4 {
				return
			}
			for k := rng.Intn(3); k > 0; k-- {
				child := spawn(depth + 1)
				switch rng.Intn(4) {
				case 0:
					s.After(0, child)
				case 1:
					s.At(s.Now()-time.Duration(1+rng.Intn(5))*time.Millisecond, child)
				case 2:
					s.After(time.Duration(rng.Intn(4))*time.Millisecond, child)
				default:
					s.At(time.Duration(rng.Intn(120))*time.Millisecond, child)
				}
			}
		}
	}
	for i := 0; i < 2000; i++ {
		s.At(time.Duration(rng.Intn(60))*time.Millisecond, spawn(0))
	}
	for w := time.Duration(0); w < 150*time.Millisecond; w += time.Duration(1+rng.Intn(3)) * time.Millisecond {
		windows = append(windows, s.Run(w), s.Pending())
		// Between windows the clock stands at w, not at the last event.
		s.After(time.Duration(rng.Intn(3))*time.Millisecond, spawn(0))
	}
	windows = append(windows, s.Run(time.Second), s.Pending())
	return log, windows
}

// TestEngineOrderMatchesReferenceHeap drives the engine and the
// container/heap oracle with the same schedules and requires the
// identical execution order, firing times and per-window counts.
func TestEngineOrderMatchesReferenceHeap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(scheduler) ([]firing, []int)
	}{
		{"fixed", fixedSchedule},
		{"rescheduling", reschedulingSchedule},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, gotWindows := tc.schedule(NewEngine(1))
			want, wantWindows := tc.schedule(&refEngine{})
			if len(got) != len(want) {
				t.Fatalf("ran %d events, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("execution diverges at %d: got %+v, reference %+v", i, got[i], want[i])
				}
			}
			if !slices.Equal(gotWindows, wantWindows) {
				t.Fatalf("per-window run/pending counts differ:\n got %v\nwant %v", gotWindows, wantWindows)
			}
			if n := gotWindows[len(gotWindows)-1]; n != 0 {
				t.Fatalf("%d events pending after drain", n)
			}
		})
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

// TestEnginePoolReuse checks the backing array is reused: after a
// warm-up that sizes the heap, steady-state At+Run cycles must
// not grow the heap allocation at all. The closure is hoisted so the
// measurement sees only the scheduler's own behavior.
func TestEnginePoolReuse(t *testing.T) {
	e := NewEngine(3)
	fn := func() {}
	// Warm up: grow the heap's backing array past steady-state size.
	for i := 0; i < 4096; i++ {
		e.At(time.Duration(i)*time.Millisecond, fn)
	}
	e.Run(5 * time.Second)

	base := e.Now()
	allocs := testing.AllocsPerRun(200, func() {
		// Interleave Run and At, as the protocol stack does, and drain
		// fully so slots are recycled.
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

// TestNetworkDeliveryAllocatesNothing: a message is a value event and a
// slot in the network's in-flight slab, so once the slab and the event
// heap are warm, a send through arrival and delivery allocates nothing —
// on the lossy and reliable paths, for messages the loss draw or a
// partition drops, and for deliveries to a dead receiver.
func TestNetworkDeliveryAllocatesNothing(t *testing.T) {
	n, err := New(Config{Latency: ConstantLatency(time.Millisecond), LossRate: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	handler := func(from, size int, payload any) { delivered++ }
	a := n.AddNode(nil, NodeBandwidth, NodeBandwidth)
	b := n.AddNode(handler, NodeBandwidth, NodeBandwidth)
	dead := n.AddNode(handler, NodeBandwidth, NodeBandwidth)
	cut := n.AddNode(handler, NodeBandwidth, NodeBandwidth)
	if err := n.SetDead(dead, true); err != nil {
		t.Fatal(err)
	}
	n.SetLinkFilter(func(from, to int) bool { return to == cut })
	payload := any(&struct{ cells []int }{cells: []int{1, 2, 3}})
	cycle := func() {
		for i := 0; i < 16; i++ {
			n.Send(a, b, 600, payload)
			n.SendReliable(a, b, 600, payload)
			n.SendReliable(a, dead, 600, payload)
			n.Send(a, cut, 600, payload)
		}
		n.Run(n.Now() + 50*time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	before := delivered
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm send/arrive/deliver cycles allocated %v times per cycle, want 0", allocs)
	}
	if n.engine.Pending() != 0 || len(n.free) != len(n.msgs) {
		t.Fatalf("%d events pending, %d of %d slab slots free after drain", n.engine.Pending(), len(n.free), len(n.msgs))
	}
	if delivered == before || n.Stats(dead).MsgsRecv == 0 || n.Stats(a).MsgsLost == 0 {
		t.Fatalf("delivered %d, dead received %d, lost %d: a path went unexercised",
			delivered-before, n.Stats(dead).MsgsRecv, n.Stats(a).MsgsLost)
	}
}

// TestEngineConcurrentEngines runs independent engines on separate
// goroutines under the race tier: event heaps are per-engine state and
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
	// Warm up: cycle the whole population several times so the heap
	// grows to steady-state capacity; the measured loop is then
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
