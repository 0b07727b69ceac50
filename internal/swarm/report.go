package swarm

import (
	"fmt"
	"strings"
	"time"

	"pandas/internal/core"
	"pandas/internal/obsv"
)

// SlotResult is one slot's harvested outcome, in the simnet's schema:
// Outcomes[i] is node i exactly as core.Cluster would report it, so
// swarm numbers drop into the same EXPERIMENTS.md tables.
type SlotResult struct {
	Slot     uint64
	Outcomes []core.NodeOutcome
	Reports  int                // nodes that reported (dead workers leave gaps)
	Seeding  core.SeedingReport // the builder's report (zero if none arrived)
	Restarts int                // worker restarts during this slot
	Rejoined int                // restarted workers that re-acked the Start mid-slot
}

// Sampling is the distribution of sampling times over the slot's
// eligible nodes (core.NodeOutcome.EligibleAt, the rule the simnet
// experiments pool by: not dead the whole slot, not killed before the
// deadline d, and not a mid-slot rejoiner, which is measured as catch-up).
func (sr SlotResult) Sampling(d time.Duration) *obsv.Distribution {
	var samples []time.Duration
	for _, oc := range sr.Outcomes {
		if oc.EligibleAt(d) {
			samples = append(samples, oc.Sampling)
		}
	}
	return obsv.NewDistribution(samples)
}

// Result is a full swarm run.
type Result struct {
	N            int
	Slots        int
	Seed         int64
	Geometry     Geometry
	KillFraction float64

	SlotResults   []SlotResult
	TotalRestarts int
}

// Render formats the run as the text table the pandas-swarm CLI prints.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "swarm: %d nodes + builder, %d slots, seed %d", r.N, r.Slots, r.Seed)
	if r.KillFraction > 0 {
		fmt.Fprintf(&b, ", kill %.0f%%/slot", r.KillFraction*100)
	}
	fmt.Fprintf(&b, "\n")
	fmt.Fprintf(&b, "%-5s %-9s %-10s %-10s %-10s %-9s %-9s %-9s\n",
		"slot", "reports", "deadline", "p50-sample", "p99-sample", "fetchmsgs", "restarts", "rejoined")
	deadline := core.DefaultConfig().Deadline
	for _, sr := range r.SlotResults {
		sampling := sr.Sampling(deadline)
		rate, p50, p99 := "n/a", "n/a", "n/a"
		if sampling.Total() > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*sampling.FractionWithin(deadline))
		}
		if sampling.Count() > 0 {
			p50 = sampling.Median().Round(time.Millisecond).String()
			p99 = sampling.Percentile(99).Round(time.Millisecond).String()
		}
		fetch := 0
		for _, oc := range sr.Outcomes {
			fetch += oc.FetchMsgs
		}
		fmt.Fprintf(&b, "%-5d %-9s %-10s %-10s %-10s %-9d %-9d %-9d\n",
			sr.Slot,
			fmt.Sprintf("%d/%d", sr.Reports, r.N),
			rate,
			p50,
			p99,
			fetch,
			sr.Restarts,
			sr.Rejoined)
	}
	fmt.Fprintf(&b, "total restarts: %d\n", r.TotalRestarts)
	return b.String()
}
