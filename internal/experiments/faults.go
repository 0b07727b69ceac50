package experiments

import (
	"fmt"

	"pandas/internal/core"
)

// FaultKind selects the Fig. 15 fault model.
type FaultKind string

// Fault kinds.
const (
	// FaultDead marks nodes as crashed/free-riding: they never respond,
	// and neither builder nor peers know.
	FaultDead FaultKind = "dead"
	// FaultOutOfView gives every node an incomplete, random view of the
	// network (the builder keeps its full view).
	FaultOutOfView FaultKind = "out-of-view"
)

// Fig15 reproduces Fig. 15: time to consolidation and sampling for
// increasing fractions of dead (Fig. 15a) or out-of-view (Fig. 15b)
// nodes, with the share of live nodes sampling on time. The paper sweeps
// 0-80% in 20% steps on a 10,000-node network. Samples are labelled by
// fraction ("40%").
func Fig15(o Options, kind FaultKind, fractions []float64) (*Result, error) {
	o = o.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0, 0.2, 0.4, 0.6, 0.8}
	}
	res := &Result{
		Title: fmt.Sprintf("Fig. 15%s — %s nodes sweep, %d nodes",
			map[FaultKind]string{FaultDead: "a", FaultOutOfView: "b"}[kind], kind, o.Nodes),
		Header: []string{"fraction", "cons median", "cons P99", "sample median", "sample P99", "on-time%"},
	}
	for _, frac := range fractions {
		frac := frac
		s, _, err := runPooled(fmt.Sprintf("%.0f%%", frac*100), o, func(cc *core.ClusterConfig) {
			cc.Core.Policy = core.PolicyRedundant
			switch kind {
			case FaultDead:
				cc.DeadFraction = frac
			case FaultOutOfView:
				cc.OutOfViewFraction = frac
			}
		})
		if err != nil {
			return nil, err
		}
		res.add(s, s.Label,
			fmtMs(s.Cons.Median()), fmtMs(s.Cons.Percentile(99)),
			fmtMs(s.Sampling.Median()), fmtMs(s.Sampling.Percentile(99)),
			s.onTimePct())
	}
	return res, nil
}
