package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pandas/internal/baseline"
	"pandas/internal/core"
)

// System identifies the compared DAS designs.
type System string

// Compared systems.
const (
	SystemPandas System = "pandas"
	SystemGossip System = "gossipsub"
	SystemDHT    System = "dht"
)

// defaultSizes is the network-size sweep of Fig. 13 and 14.
var defaultSizes = []int{1000, 3000, 5000, 10000, 20000}

// runSystem executes one system at the given options and pools slots.
func runSystem(sys System, o Options) (*Sample, error) {
	var runSlot func(uint64) (*core.SlotResult, error)
	cc := clusterConfig(o)
	switch sys {
	case SystemPandas:
		cc.Core.Policy = core.PolicyRedundant
		c, err := core.NewCluster(cc)
		if err != nil {
			return nil, err
		}
		runSlot = c.RunSlot
	case SystemGossip:
		g, err := baseline.NewGossipCluster(cc)
		if err != nil {
			return nil, err
		}
		runSlot = g.RunSlot
	case SystemDHT:
		d, err := baseline.NewDHTCluster(cc)
		if err != nil {
			return nil, err
		}
		runSlot = d.RunSlot
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", sys)
	}
	outcomes, _, err := runSlots(runSlot, o.Slots)
	if err != nil {
		return nil, err
	}
	return pool(string(sys), outcomes, o.Core.Deadline, nil), nil
}

// compareSystems runs the three systems at one scale into a table;
// samples are labelled by system.
func compareSystems(title string, o Options) (*Result, error) {
	res := &Result{
		Title:  title,
		Header: []string{"system", "median ms", "P99 ms", "max ms", "on-time%", "msgs mean", "KB mean"},
	}
	for _, sys := range []System{SystemPandas, SystemGossip, SystemDHT} {
		s, err := runSystem(sys, o)
		if err != nil {
			return nil, fmt.Errorf("%s @%d: %w", sys, o.Nodes, err)
		}
		res.add(s, append(phaseCells(s.Sampling, o.Core.Deadline, s.Label),
			fmt.Sprintf("%.0f", s.Msgs.Mean()),
			fmt.Sprintf("%.1f", s.Bytes.Mean()/1024))...)
	}
	return res, nil
}

// Fig12 reproduces Fig. 12: time to sampling and message counts for
// PANDAS, the GossipSub baseline, and the DHT baseline at one scale.
func Fig12(o Options) (*Result, error) {
	o = o.withDefaults()
	return compareSystems(fmt.Sprintf("Fig. 12 — PANDAS vs baselines, %d nodes", o.Nodes), o)
}

// Fig13 reproduces Fig. 13: PANDAS phase times, messages, and bandwidth
// at increasing network sizes (paper: 1k, 3k, 5k, 10k, 20k). Samples are
// labelled by size. Values["peak in flight"] is the most messages the
// simulator held in flight at once over the run: its link queues, the
// state that bounds how large a network it can simulate. Each size's wall
// time and the memory the process has taken from the OS go to stderr,
// outside the deterministic table.
func Fig13(o Options, sizes []int) (*Result, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = defaultSizes
	}
	res := &Result{
		Title: fmt.Sprintf("Fig. 13 — PANDAS scaling (redundant seeding, %d slots)", o.Slots),
		Header: []string{"nodes", "seed P99", "cons P99", "sample median", "sample P99", "on-time%",
			"msgs mean", "KB mean", "peak in flight"},
	}
	for _, size := range sizes {
		so := o
		so.Nodes = size
		start := time.Now()
		c, err := newCluster(so, func(cc *core.ClusterConfig) {
			cc.Core.Policy = core.PolicyRedundant
		})
		if err != nil {
			return nil, err
		}
		outcomes, _, err := runSlots(c.RunSlot, so.Slots)
		if err != nil {
			return nil, err
		}
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		fmt.Fprintf(os.Stderr, "fig13: %d nodes in %v, %d MB from the OS\n",
			size, time.Since(start).Round(time.Millisecond), mem.Sys>>20)
		s := pool(fmt.Sprintf("%d", size), outcomes, so.Core.Deadline, nil)
		peak := c.Network().PeakInFlight()
		s.Values = map[string]float64{"peak in flight": float64(peak)}
		res.add(s, s.Label,
			fmtMs(s.Seeding.Percentile(99)),
			fmtMs(s.Cons.Percentile(99)),
			fmtMs(s.Sampling.Median()),
			fmtMs(s.Sampling.Percentile(99)),
			s.onTimePct(),
			fmt.Sprintf("%.0f", s.Msgs.Mean()),
			fmt.Sprintf("%.1f", s.Bytes.Mean()/1024),
			fmt.Sprintf("%d", peak))
	}
	return res, nil
}

// Fig14 reproduces Fig. 14: sampling time, messages, and bandwidth for
// PANDAS and both baselines across network sizes, one part per size.
func Fig14(o Options, sizes []int) (*Result, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = defaultSizes
	}
	res := &Result{Title: "Fig. 14 — system comparison across scales"}
	for _, size := range sizes {
		so := o
		so.Nodes = size
		part, err := compareSystems(fmt.Sprintf("%d nodes:", size), so)
		if err != nil {
			return nil, err
		}
		res.Parts = append(res.Parts, part)
	}
	return res, nil
}
