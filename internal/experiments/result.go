package experiments

import (
	"fmt"
	"strings"
	"time"

	"pandas/internal/core"
	"pandas/internal/obsv"
)

// Sample is the pooled outcome of one configuration of an experiment:
// what a row of its table is computed from. The distributions hold one
// entry per eligible node-slot (never-completed phases count as
// failures); they are nil in a sample that pooled no node outcomes
// (confidence, table1's rounds), which then carries Values only.
type Sample struct {
	// Label names the configuration: the row's first cell.
	Label string
	// Deadline is the sampling deadline the on-time figures refer to.
	Deadline time.Duration

	Seeding      *obsv.Distribution // Fig. 9a (from slot start)
	ConsFromSeed *obsv.Distribution // Fig. 9b
	Cons         *obsv.Distribution // Fig. 9c (from slot start)
	Sampling     *obsv.Distribution // Fig. 9d
	Block        *obsv.Distribution // block reception (only with BlockGossip)
	Msgs, Bytes  *obsv.Scalar       // fetch traffic per node, both directions

	// Values holds the row's numbers that are not node outcomes (builder
	// bytes, lifecycle events, the simulator's peak messages in flight), by
	// name.
	Values map[string]float64
}

// pool turns node outcomes into a Sample. It is the only place outcomes
// are filtered and counted: a node-slot counts when the node was up from
// the slot start to the deadline (core.NodeOutcome.EligibleAt; without
// churn that is every node not dead) and, with include non-nil, when
// include(i) holds for its index i in outcomes.
func pool(label string, outcomes []core.NodeOutcome, deadline time.Duration, include func(i int) bool) *Sample {
	var seed, cfs, cons, samp, block []time.Duration
	msgs, bytes := obsv.NewScalar(nil), obsv.NewScalar(nil)
	for i, o := range outcomes {
		if !o.EligibleAt(deadline) || (include != nil && !include(i)) {
			continue
		}
		seed = append(seed, o.Seed)
		cfs = append(cfs, o.ConsFromSeed)
		cons = append(cons, o.Consolidation)
		samp = append(samp, o.Sampling)
		block = append(block, o.BlockRecv)
		msgs.Add(float64(o.FetchMsgs))
		bytes.Add(float64(o.FetchBytes))
	}
	return &Sample{
		Label:        label,
		Deadline:     deadline,
		Seeding:      obsv.NewDistribution(seed),
		ConsFromSeed: obsv.NewDistribution(cfs),
		Cons:         obsv.NewDistribution(cons),
		Sampling:     obsv.NewDistribution(samp),
		Block:        obsv.NewDistribution(block),
		Msgs:         msgs,
		Bytes:        bytes,
	}
}

// Eligible is the number of node-slots pooled: the on-time denominator.
func (s *Sample) Eligible() int { return s.Sampling.Total() }

// OnTime is the number of eligible node-slots that sampled within the
// deadline.
func (s *Sample) OnTime() int { return s.Sampling.Within(s.Deadline) }

// OnTimeRate is OnTime over Eligible (0 when nothing was eligible).
func (s *Sample) OnTimeRate() float64 { return s.Sampling.FractionWithin(s.Deadline) }

// onTimePct formats the on-time% column.
func (s *Sample) onTimePct() string { return fmt.Sprintf("%.1f", 100*s.OnTimeRate()) }

// Result is what every experiment returns: one table in the layout of
// the paper's figure, the samples its rows were computed from, and, for
// experiments that print several tables, the nested parts.
type Result struct {
	// Title is printed above the table (it may span lines).
	Title  string
	Header []string
	Rows   [][]string
	// Footer lines are printed below the table.
	Footer []string
	// Samples gives tests and the -csv export typed access to the pooled
	// data, in row order.
	Samples []*Sample
	// Parts are rendered after the table, each after a blank line.
	Parts []*Result
}

// add appends a row and, when non-nil, the sample behind it.
func (r *Result) add(s *Sample, cells ...string) {
	r.Rows = append(r.Rows, cells)
	if s != nil {
		r.Samples = append(r.Samples, s)
	}
}

// Sample returns the sample with the given label (nil if there is none).
func (r *Result) Sample(label string) *Sample {
	for _, s := range r.Samples {
		if s.Label == label {
			return s
		}
	}
	return nil
}

// Render prints the result as aligned text: title, table, footer, parts.
func (r *Result) Render() string {
	var b strings.Builder
	if r.Title != "" {
		b.WriteString(r.Title)
		b.WriteByte('\n')
	}
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(c)
				if i < len(cells)-1 {
					b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
				}
			}
			b.WriteByte('\n')
		}
		writeRow(r.Header)
		sep := make([]string, len(r.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, line := range r.Footer {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for i, p := range r.Parts {
		if i > 0 || b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(p.Render())
	}
	return b.String()
}
