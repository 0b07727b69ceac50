package experiments

import (
	"fmt"

	"pandas/internal/core"
	"pandas/internal/obsv"
)

// Ablation sweeps the builder's seeding redundancy r (default r = 1, 2,
// 4, 8, 16) — the design knob the paper's §9 "adaptive policies"
// discussion calls out. It quantifies the trade the builder faces: more
// copies cost outbound bandwidth but cut consolidation retries and tail
// latency. Samples are labelled by r; Values["builder bytes"] is the
// mean the builder sent per slot.
func Ablation(o Options, redundancies []int) (*Result, error) {
	o = o.withDefaults()
	if len(redundancies) == 0 {
		redundancies = []int{1, 2, 4, 8, 16}
	}
	res := &Result{
		Title:  fmt.Sprintf("Ablation — builder seeding redundancy, %d nodes", o.Nodes),
		Header: []string{"r", "builder MB/slot", "sample median", "sample P99", "on-time%", "fetch msgs mean"},
	}
	for _, r := range redundancies {
		r := r
		s, slots, err := runPooled(fmt.Sprintf("%d", r), o, func(cc *core.ClusterConfig) {
			cc.Core.Policy = core.PolicyRedundant
			cc.Core.Redundancy = r
		})
		if err != nil {
			return nil, err
		}
		builderBytes := obsv.NewScalar(nil)
		for _, sr := range slots {
			builderBytes.Add(float64(sr.Seeding.Bytes))
		}
		s.Values = map[string]float64{"builder bytes": builderBytes.Mean()}
		res.add(s, s.Label,
			fmt.Sprintf("%.1f", builderBytes.Mean()/1e6),
			fmtMs(s.Sampling.Median()), fmtMs(s.Sampling.Percentile(99)),
			s.onTimePct(),
			fmt.Sprintf("%.0f", s.Msgs.Mean()))
	}
	return res, nil
}
