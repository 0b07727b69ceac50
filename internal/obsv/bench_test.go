package obsv

import (
	"math"
	"testing"
	"time"
)

// BenchmarkEmitDisabled measures the disabled-recorder cost at every
// instrumentation site: one nil check. TestEmitDisabledCost holds it to
// <= 2 ns/op, TestEmitDisabledZeroAllocs to 0 allocs/op.
func BenchmarkEmitDisabled(b *testing.B) {
	var o Observer
	e := Event{At: time.Second, Kind: KindCellsReceived, Count: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(e)
	}
}

// BenchmarkEmitEnabled measures the enabled path: atomic ticket, event
// copy, atomic pointer store.
func BenchmarkEmitEnabled(b *testing.B) {
	o := Observer{Rec: MustRing(1 << 12), Node: 7, Slot: 1}
	e := Event{At: time.Second, Kind: KindCellsReceived, Count: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(e)
	}
}

func BenchmarkRingRecordParallel(b *testing.B) {
	r := MustRing(1 << 14)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		e := Event{Kind: KindCellsReceived}
		for pb.Next() {
			r.Record(e)
		}
	})
}

// TestEmitDisabledCost holds the disabled path to <= 2 ns/op (ROADMAP aim
// 4). The best of three runs counts, so one run slowed by another process
// on the machine does not fail it.
func TestEmitDisabledCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments the nil check")
	}
	best := math.Inf(1)
	for i := 0; i < 3 && best > 2; i++ {
		r := testing.Benchmark(BenchmarkEmitDisabled)
		best = math.Min(best, float64(r.T.Nanoseconds())/float64(r.N))
	}
	if best > 2 {
		t.Fatalf("disabled Emit costs %.2f ns/op, want <= 2", best)
	}
}

// TestEmitDisabledZeroAllocs pins the disabled path's allocation count
// to zero.
func TestEmitDisabledZeroAllocs(t *testing.T) {
	var o Observer
	e := Event{At: time.Second, Kind: KindCellsReceived, Count: 8}
	if n := testing.AllocsPerRun(1000, func() { o.Emit(e) }); n != 0 {
		t.Fatalf("disabled Emit allocates %.1f per op, want 0", n)
	}
}
