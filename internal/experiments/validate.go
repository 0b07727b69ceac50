package experiments

import (
	"fmt"

	"pandas/internal/core"
)

// Validate cross-validates the two simulation modes, mirroring the
// paper's §8.2 "Simulator validation" (prototype vs PeerSim): the
// metadata-cell mode (used for large scales) is compared against the
// full data plane (real payloads, erasure decoding, commitment
// verification) on identical deployments. Samples are labelled
// "metadata" and "real"; the "real" sample's Values["median gap"] is
// |median_meta - median_real| / median_real for time-to-sampling, where
// small values validate the metadata shortcut.
func Validate(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Title:  fmt.Sprintf("Simulator validation — metadata vs real data plane, %d nodes", o.Nodes),
		Header: []string{"mode", "seed P99", "cons median", "sample median", "sample P99"},
	}
	for _, mode := range []string{"metadata", "real"} {
		real := mode == "real"
		c, err := newCluster(o, func(cc *core.ClusterConfig) {
			cc.Core.Policy = core.PolicyRedundant
			cc.Core.RealPayloads = real
		})
		if err != nil {
			return nil, fmt.Errorf("%s mode: %w", mode, err)
		}
		if real {
			data := make([]byte, o.Core.Blob.BlobBytes())
			for i := range data {
				data[i] = byte(i * 131)
			}
			if err := c.Builder().PrepareBlob(data); err != nil {
				return nil, fmt.Errorf("%s mode: %w", mode, err)
			}
		}
		outcomes, _, err := runSlots(c.RunSlot, o.Slots)
		if err != nil {
			return nil, fmt.Errorf("%s mode: %w", mode, err)
		}
		s := pool(mode, outcomes, o.Core.Deadline, nil)
		res.add(s, mode,
			fmtMs(s.Seeding.Percentile(99)),
			fmtMs(s.Cons.Median()),
			fmtMs(s.Sampling.Median()),
			fmtMs(s.Sampling.Percentile(99)))
	}
	mm, mr := res.Samples[0].Sampling.Median(), res.Samples[1].Sampling.Median()
	gap := 0.0
	if mr > 0 {
		gap = float64(mm-mr) / float64(mr)
		if gap < 0 {
			gap = -gap
		}
	}
	res.Samples[1].Values = map[string]float64{"median gap": gap}
	res.Footer = []string{fmt.Sprintf("sampling median gap: %.1f%%", 100*gap)}
	return res, nil
}
