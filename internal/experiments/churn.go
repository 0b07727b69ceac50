package experiments

import (
	"fmt"
	"time"

	"pandas/internal/core"
	"pandas/internal/membership"
)

// DefaultChurnRates is the sweep of expected per-node departures per
// slot. Rate 0 is the static-membership control (it runs the unmodified
// fixed-membership code path, so it must match Fig. 15 at fraction 0).
var DefaultChurnRates = []float64{0, 0.05, 0.1, 0.2, 0.4}

// churnConfigForRate translates a per-slot departure rate into engine
// parameters: exponential sessions with the matching mean, ~one slot of
// downtime before a restart, and an even split between graceful leaves
// and silent crashes.
func churnConfigForRate(rate float64) *membership.Config {
	if rate <= 0 {
		return nil // static membership: the untouched fixed-view path
	}
	return &membership.Config{
		MeanSession:   time.Duration(float64(core.SlotDuration) / rate),
		MeanDowntime:  core.SlotDuration,
		CrashFraction: 0.5,
	}
}

// Churn sweeps the dynamic-membership engine: for each churn rate it
// runs the usual multi-slot deployment while nodes join, leave, crash,
// and restart mid-slot, and reports sampling-deadline success over the
// nodes that were actually present for the whole deadline window.
// Samples are labelled by rate ("0.30"); Values holds the lifecycle
// events over the run ("joins", "restarts", "leaves", "crashes") and the
// mid-slot joiners ("joined") with those of them that still completed
// sampling before their first slot ended ("caught up": empty store, no
// seeding).
func Churn(o Options, rates []float64) (*Result, error) {
	o = o.withDefaults()
	if len(rates) == 0 {
		rates = DefaultChurnRates
	}
	res := &Result{
		Title: fmt.Sprintf("Churn sweep — departures per node per slot, %d nodes, %d slots", o.Nodes, o.Slots),
		Header: []string{"rate", "events J/R/L/C", "eligible",
			"sample median", "sample P99", "on-time%", "joiner catch-up"},
	}
	for _, rate := range rates {
		rate := rate
		s, slots, err := runPooled(fmt.Sprintf("%.2f", rate), o, func(cc *core.ClusterConfig) {
			cc.Core.Policy = core.PolicyRedundant
			cc.Churn = churnConfigForRate(rate)
		})
		if err != nil {
			return nil, fmt.Errorf("rate %.2f: %w", rate, err)
		}
		v := map[string]float64{}
		for _, slot := range slots {
			v["joins"] += float64(slot.Churn.Joins)
			v["restarts"] += float64(slot.Churn.Restarts)
			v["leaves"] += float64(slot.Churn.Leaves)
			v["crashes"] += float64(slot.Churn.Crashes)
			joined, caughtUp := slot.JoinerCatchUp()
			v["joined"] += float64(joined)
			v["caught up"] += float64(caughtUp)
		}
		s.Values = v
		catchUp := "-"
		if v["joined"] > 0 {
			catchUp = fmt.Sprintf("%.0f/%.0f (%.0f%%)", v["caught up"], v["joined"], 100*v["caught up"]/v["joined"])
		}
		res.add(s, s.Label,
			fmt.Sprintf("%.0f/%.0f/%.0f/%.0f", v["joins"], v["restarts"], v["leaves"], v["crashes"]),
			fmt.Sprintf("%d", s.Eligible()),
			fmtMs(s.Sampling.Median()), fmtMs(s.Sampling.Percentile(99)),
			s.onTimePct(),
			catchUp)
	}
	return res, nil
}
