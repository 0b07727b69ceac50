package experiments

import (
	"fmt"
	"sort"

	"pandas/internal/adversary"
	"pandas/internal/blob"
	"pandas/internal/core"
)

// Withholding measures the end-to-end sampling miss rate against a
// maximally withholding builder (the (n/2+1)^2 square of Fig. 3-right)
// as a function of the per-node sample count, and sets it against the
// analytic bound and the idealized Monte Carlo of the Section 3
// analysis. A "miss" is a node that found all its samples and so would
// attest to an unavailable block; the paper's 73 samples push this below
// 1e-9. sampleCounts nil selects a sweep scaled to the geometry;
// mcTrials <= 0 selects 20,000.
//
// Samples are labelled by sample count. Eligible() is the number of
// node-slots measured and Values carries the miss rate three ways:
// "analytic" (the hypergeometric false-positive upper bound), "monte
// carlo" (Confidence's independent uniform draws against the withheld
// set, no network) and "cluster" (real protocol runs: the fraction of
// live node-slots whose sampling completed even though the data is
// unrecoverable).
func Withholding(o Options, sampleCounts []int, mcTrials int) (*Result, error) {
	o = o.withDefaults()
	n := o.Core.Blob.N()
	if len(sampleCounts) == 0 {
		sampleCounts = defaultSampleSweep(o.Core.Samples)
	}
	if mcTrials <= 0 {
		mcTrials = 20000
	}
	mc := Confidence(n, sampleCounts, mcTrials, o.Seed)
	res := &Result{
		Title: fmt.Sprintf("Withholding detection — maximal pattern (%d of %d cells withheld), %d nodes x %d slots, %d MC trials",
			blob.WithheldCells(n), n*n, o.Nodes, o.Slots, mcTrials),
		Header: []string{"samples", "analytic bound", "monte carlo", "cluster miss", "node-slots"},
	}
	for i, count := range sampleCounts {
		count := count
		s, _, err := runPooled(fmt.Sprintf("%d", count), o, func(cc *core.ClusterConfig) {
			cc.Core.Samples = count
			cc.Adversary = &adversary.Config{Withhold: true}
		})
		if err != nil {
			return nil, err
		}
		s.Values = map[string]float64{
			"analytic":    blob.FalsePositiveBound(n, count),
			"monte carlo": mc.Samples[i].Values["empirical"],
		}
		if s.Eligible() > 0 {
			s.Values["cluster"] = float64(s.Sampling.Count()) / float64(s.Eligible())
		}
		res.add(s, s.Label,
			fmt.Sprintf("%.3g", s.Values["analytic"]),
			fmt.Sprintf("%.3g", s.Values["monte carlo"]),
			fmt.Sprintf("%.3g", s.Values["cluster"]),
			fmt.Sprintf("%d", s.Eligible()))
	}
	return res, nil
}

// defaultSampleSweep returns doubling sample counts up to the configured
// per-node count, always ending at the configured count itself.
func defaultSampleSweep(samples int) []int {
	counts := []int{1, 2, 4, 8, 16, 32}
	var out []int
	for _, c := range counts {
		if c < samples {
			out = append(out, c)
		}
	}
	out = append(out, samples)
	sort.Ints(out)
	return out
}

// Byzantine sweeps the fraction of nodes exhibiting one byzantine
// behavior and measures the sampling-deadline success of the honest
// remainder. The paper's robustness claim is that redundancy in the
// adaptive fetcher (parallel in-flight queries, and a queryable set that
// asks each peer at most once per slot until it is re-armed) absorbs
// non-responding or lying peers; this quantifies how far that holds.
// Peer health backs off a silent peer once its reply deadline expires,
// as in every run. fractions nil selects 0-40% in 10% steps.
//
// Samples are labelled by fraction ("20%") and pool the honest nodes
// only; Values["corrupt rejects"] counts the cells all nodes rejected
// for failed verification over every slot (garbage behavior only).
func Byzantine(o Options, behavior adversary.Behavior, fractions []float64) (*Result, error) {
	o = o.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.1, 0.2, 0.3, 0.4}
	}
	res := &Result{
		Title: fmt.Sprintf("Byzantine tolerance — %s nodes sweep, %d nodes x %d slots, %v deadline",
			behavior, o.Nodes, o.Slots, o.Core.Deadline),
		Header: []string{"byzantine", "deadline met", "sample median", "sample P99", "corrupt rejects"},
	}
	for _, frac := range fractions {
		adv := &adversary.Config{}
		switch behavior {
		case adversary.Silent:
			adv.SilentFraction = frac
		case adversary.Laggard:
			adv.LaggardFraction = frac
		case adversary.Garbage:
			adv.GarbageFraction = frac
		default:
			return nil, fmt.Errorf("byzantine sweep: unsupported behavior %v", behavior)
		}
		c, err := newCluster(o, func(cc *core.ClusterConfig) {
			cc.Adversary = adv
		})
		if err != nil {
			return nil, err
		}
		behaviors := c.Behaviors()
		outcomes, _, err := runSlots(c.RunSlot, o.Slots)
		if err != nil {
			return nil, err
		}
		s := pool(fmt.Sprintf("%.0f%%", frac*100), outcomes, o.Core.Deadline, func(i int) bool {
			return behaviors[i%o.Nodes] == adversary.Honest
		})
		rejects := 0
		for _, oc := range outcomes {
			rejects += oc.CorruptRejects
		}
		s.Values = map[string]float64{"corrupt rejects": float64(rejects)}
		res.add(s, s.Label,
			fmt.Sprintf("%.1f%%", 100*s.OnTimeRate()),
			fmtMs(s.Sampling.Median()), fmtMs(s.Sampling.Percentile(99)),
			fmt.Sprintf("%d", rejects))
	}
	return res, nil
}
