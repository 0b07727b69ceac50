package experiments

import (
	"fmt"
	"time"

	"pandas/internal/core"
	"pandas/internal/fetch"
	"pandas/internal/obsv"
)

// seedingPolicies are the three builder policies Fig. 9 and 10 compare.
var seedingPolicies = []core.Policy{core.PolicyMinimal, core.PolicySingle, core.PolicyRedundant}

// phaseCells returns lead followed by one distribution's median / P99 /
// max / on-time% cells.
func phaseCells(d *obsv.Distribution, deadline time.Duration, lead ...string) []string {
	return append(lead, fmtMs(d.Median()), fmtMs(d.Percentile(99)), fmtMs(d.Max()),
		fmt.Sprintf("%.1f", 100*d.FractionWithin(deadline)))
}

// Fig9 reproduces Fig. 9: distributions of time-to-seeding,
// time-to-consolidation (from seeding and from slot start), and
// time-to-sampling across all nodes, for the minimal / single / redundant
// seeding policies, plus the gossip block-reception curve plotted for
// comparison in Fig. 9a. Samples are labelled by policy.
func Fig9(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Title:  fmt.Sprintf("Fig. 9 — phase times, %d nodes, %d slots (ms)", o.Nodes, o.Slots),
		Header: []string{"policy", "phase", "median", "P99", "max", "on-time%"},
	}
	deadline := o.Core.Deadline
	for _, policy := range seedingPolicies {
		policy := policy
		s, _, err := runPooled(policy.String(), o, func(cc *core.ClusterConfig) {
			cc.Core.Policy = policy
			cc.BlockGossip = policy == core.PolicyRedundant // one block curve suffices
		})
		if err != nil {
			return nil, err
		}
		res.Samples = append(res.Samples, s)
		for _, row := range []struct {
			name string
			d    *obsv.Distribution
		}{
			{"seeding", s.Seeding},
			{"consolidation(from seed)", s.ConsFromSeed},
			{"consolidation(from start)", s.Cons},
			{"sampling", s.Sampling},
		} {
			res.add(nil, phaseCells(row.d, deadline, s.Label, row.name)...)
		}
	}
	block := res.Sample(core.PolicyRedundant.String()).Block
	res.add(nil, phaseCells(block, deadline, "(gossip)", "block reception")...)
	return res, nil
}

// Fig10 reproduces Fig. 10: distribution of messages and traffic volume
// used for fetching (consolidation + sampling, both directions) across
// nodes, per seeding policy. Samples are labelled by policy.
func Fig10(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Title:  fmt.Sprintf("Fig. 10 — fetch traffic per node, %d nodes (both directions)", o.Nodes),
		Header: []string{"policy", "msgs mean±std", "msgs max", "KB mean", "KB max"},
	}
	for _, policy := range seedingPolicies {
		policy := policy
		s, _, err := runPooled(policy.String(), o, func(cc *core.ClusterConfig) { cc.Core.Policy = policy })
		if err != nil {
			return nil, err
		}
		res.add(s, s.Label,
			s.Msgs.MeanStd(),
			fmt.Sprintf("%.0f", s.Msgs.Max()),
			fmt.Sprintf("%.1f", s.Bytes.Mean()/1024),
			fmt.Sprintf("%.1f", s.Bytes.Max()/1024))
	}
	return res, nil
}

// table1Rows are the per-round counters of Table 1, in row order.
var table1Rows = []struct {
	name string
	get  func(obsv.RoundStat) int
}{
	{"Messages sent", func(r obsv.RoundStat) int { return r.MsgsSent }},
	{"Cells requested", func(r obsv.RoundStat) int { return r.CellsRequested }},
	{"Replies received in round", func(r obsv.RoundStat) int { return r.RepliesInRound }},
	{"Replies received after round", func(r obsv.RoundStat) int { return r.RepliesAfterRound }},
	{"Cells received in round", func(r obsv.RoundStat) int { return r.CellsInRound }},
	{"Cells received after round", func(r obsv.RoundStat) int { return r.CellsAfterRound }},
	{"Received cells duplicates", func(r obsv.RoundStat) int { return r.Duplicates }},
	{"Cells reconstructed", func(r obsv.RoundStat) int { return r.Reconstructed }},
}

// table1Coverage names the last row of Table 1 (a mean, not mean ± std).
const table1Coverage = "Cumulative coverage of F"

// Table1 reproduces Table 1: fetching-algorithm performance in successive
// rounds under the redundant seeding policy, as means ± stddev over
// nodes. Samples are labelled "round 1".."round 4" and carry the row
// means in Values, keyed by row name.
func Table1(o Options) (*Result, error) {
	o = o.withDefaults()
	c, err := newCluster(o, func(cc *core.ClusterConfig) {
		cc.Core.Policy = core.PolicyRedundant
	})
	if err != nil {
		return nil, err
	}
	outcomes, _, err := runSlots(c.RunSlot, o.Slots)
	if err != nil {
		return nil, err
	}
	const maxRounds = 4
	res := &Result{
		Title:  fmt.Sprintf("Table 1 — fetching per round, %d nodes, redundant seeding", o.Nodes),
		Header: []string{"metric"},
		Rows:   make([][]string, len(table1Rows)+1),
	}
	for i, row := range table1Rows {
		res.Rows[i] = []string{row.name}
	}
	res.Rows[len(table1Rows)] = []string{table1Coverage}
	for round := 0; round < maxRounds; round++ {
		stats := make([]*obsv.Scalar, len(table1Rows))
		for i := range stats {
			stats[i] = obsv.NewScalar(nil)
		}
		coverage := obsv.NewScalar(nil)
		for _, out := range outcomes {
			if !out.EligibleAt(o.Core.Deadline) || len(out.Rounds) == 0 {
				continue
			}
			// Nodes that finished before this round carry their final
			// coverage forward (they sit at ~100%), so the aggregate
			// matches the paper's cumulative column.
			if len(out.Rounds) <= round {
				coverage.Add(out.Rounds[len(out.Rounds)-1].CoverageAfter)
				continue
			}
			rs := out.Rounds[round]
			for i, row := range table1Rows {
				stats[i].Add(float64(row.get(rs)))
			}
			coverage.Add(rs.CoverageAfter)
		}
		s := &Sample{Label: fmt.Sprintf("round %d", round+1), Values: map[string]float64{
			table1Coverage: coverage.Mean(),
		}}
		res.Header = append(res.Header, s.Label)
		for i, row := range table1Rows {
			s.Values[row.name] = stats[i].Mean()
			res.Rows[i] = append(res.Rows[i], stats[i].MeanStd())
		}
		res.Rows[len(table1Rows)] = append(res.Rows[len(table1Rows)], fmt.Sprintf("%.0f%%", coverage.Mean()*100))
		res.Samples = append(res.Samples, s)
	}
	return res, nil
}

// Fig11 reproduces Fig. 11: adaptive fetching versus a constant strategy
// (fixed 400 ms timeout, redundancy 1) under redundant seeding. Samples
// are labelled "adaptive" and "constant".
func Fig11(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Title:  fmt.Sprintf("Fig. 11 — adaptive vs constant fetching, %d nodes", o.Nodes),
		Header: []string{"strategy", "median ms", "P99 ms", "max ms", "on-time%", "msgs mean±std"},
	}
	for _, strategy := range []struct{ label, row string }{
		{"adaptive", "adaptive"},
		{"constant", "constant(t=400ms,k=1)"},
	} {
		constant := strategy.label == "constant"
		s, _, err := runPooled(strategy.label, o, func(cc *core.ClusterConfig) {
			cc.Core.Policy = core.PolicyRedundant
			if constant {
				cc.Core.Schedule = fetch.ConstantSchedule(400*time.Millisecond, 1)
			}
		})
		if err != nil {
			return nil, err
		}
		res.add(s, append(phaseCells(s.Sampling, o.Core.Deadline, strategy.row), s.Msgs.MeanStd())...)
	}
	return res, nil
}
