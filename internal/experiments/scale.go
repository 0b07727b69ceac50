package experiments

// The scale experiment measures the simulator itself rather than the
// protocol: how much resident memory one simulated node costs in
// metadata mode and how many discrete events per wall-clock second the
// engine sustains, across network sizes: the numbers behind the 100k-1M
// node claims (compact per-node state + pooled sharded event heap).
// BenchmarkSimnetScale100k runs the 100k point.

import (
	"fmt"
	"runtime"
	"time"
)

// Scale runs a metadata-mode cluster at each size and reports the
// simulator's resource profile. Memory is measured as the post-GC
// HeapAlloc delta around build+run, so it reflects state the cluster
// retains, not transient garbage.
//
// Samples are labelled by size; Values carries "bytes/node" (the heap
// growth divided by N: the resident cost of one simulated node — stores,
// views, routing state, amortized event pool), "events" (discrete events
// executed across all slots) and "events/sec" (over the wall-clock time
// of the slot runs, build excluded).
func Scale(o Options, sizes []int) (*Result, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{1000, 10000}
	}
	res := &Result{
		Title: fmt.Sprintf("Simulator capacity — metadata mode, %d slots, geometry %dx%d",
			o.Slots, o.Core.Blob.N(), o.Core.Blob.N()),
		Header: []string{"nodes", "bytes/node", "events", "events/sec", "build", "run", "on-time%"},
	}
	for _, n := range sizes {
		ro := o
		ro.Nodes = n
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)

		buildStart := time.Now()
		c, err := newCluster(ro, nil)
		if err != nil {
			return nil, err
		}
		build := time.Since(buildStart)

		runStart := time.Now()
		outcomes, _, err := runSlots(c.RunSlot, ro.Slots)
		if err != nil {
			return nil, err
		}
		wall := time.Since(runStart)

		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		// Read the event counter after the memory probe so the cluster
		// (and everything it retains) stays reachable across the GC.
		events := c.Network().Engine().Executed()

		s := pool(fmt.Sprintf("%d", n), outcomes, ro.Core.Deadline, nil)
		s.Values = map[string]float64{"events": float64(events)}
		if after.HeapAlloc > before.HeapAlloc {
			s.Values["bytes/node"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
		}
		if wall > 0 {
			s.Values["events/sec"] = float64(events) / wall.Seconds()
		}
		res.add(s, s.Label,
			fmt.Sprintf("%.0f", s.Values["bytes/node"]),
			fmt.Sprintf("%d", events),
			fmt.Sprintf("%.0f", s.Values["events/sec"]),
			build.Round(time.Millisecond).String(),
			wall.Round(time.Millisecond).String(),
			s.onTimePct())
	}
	return res, nil
}
