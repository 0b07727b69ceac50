package experiments

// The experiment table. Every runnable experiment is one entry — name,
// description, the pandas-sim flags it reads, and a uniform Run — so
// pandas-sim dispatches and prints -list from the table.

import (
	"fmt"
	"os"
	"strings"
	"time"

	"pandas/internal/adversary"
)

// Params carries the cross-experiment knobs pandas-sim parses once and
// every experiment reads from. Zero values mean "use the experiment
// default"; DefaultParams fills the fields whose zero value is not a
// sensible default.
type Params struct {
	// Sizes is the network-size sweep (fig13, fig14) or the redundancy
	// sweep (ablation).
	Sizes []int
	// Fractions is the fault/byzantine fraction sweep in [0, 1).
	Fractions []float64
	// Rates is the churn sweep (departures/node/slot).
	Rates []float64
	// Trials is the Monte Carlo trial count (confidence, adversary).
	Trials int
	// Behavior is the byzantine behavior under test.
	Behavior adversary.Behavior
}

// DefaultParams returns the parameters of a run that sets none.
func DefaultParams() Params {
	return Params{
		Trials:   20000,
		Behavior: adversary.Silent,
	}
}

// Experiment is one table entry.
type Experiment struct {
	// Name is the -exp selector.
	Name string
	// Desc is the one-line -list description.
	Desc string
	// Flags names the pandas-sim flags, beyond the base options, whose
	// Params field the experiment reads; -list prints them.
	Flags []string
	// OneDeployment marks an experiment that simulates at most one
	// deployment. Only such a run can be traced: the traces of several
	// deployments would interleave with nothing to tell them apart.
	OneDeployment bool
	// Run executes the experiment.
	Run func(Options, Params) (*Result, error)
}

// Table returns the experiments in paper order (the -list order).
func Table() []Experiment {
	return []Experiment{
		{Name: "fig9", Desc: "phase-time distributions per seeding policy (Fig. 9a-d)",
			Run: func(o Options, _ Params) (*Result, error) { return Fig9(o) }},
		{Name: "fig10", Desc: "per-node fetch traffic per policy (Fig. 10)",
			Run: func(o Options, _ Params) (*Result, error) { return Fig10(o) }},
		{Name: "table1", Desc: "per-round fetching statistics (Table 1)", OneDeployment: true,
			Run: func(o Options, _ Params) (*Result, error) { return Table1(o) }},
		{Name: "fig11", Desc: "adaptive vs constant fetching (Fig. 11)",
			Run: func(o Options, _ Params) (*Result, error) { return Fig11(o) }},
		{Name: "fig12", Desc: "PANDAS vs GossipSub vs DHT at one scale (Fig. 12)",
			Run: func(o Options, _ Params) (*Result, error) { return Fig12(o) }},
		{Name: "fig13", Desc: "PANDAS scaling sweep (Fig. 13)", Flags: []string{"-sizes"},
			Run: func(o Options, p Params) (*Result, error) { return Fig13(o, p.Sizes) }},
		{Name: "fig14", Desc: "system comparison across scales (Fig. 14)", Flags: []string{"-sizes"},
			Run: func(o Options, p Params) (*Result, error) { return Fig14(o, p.Sizes) }},
		{Name: "fig15a", Desc: "dead-node sweep (Fig. 15a)", Flags: []string{"-fractions"},
			Run: func(o Options, p Params) (*Result, error) { return Fig15(o, FaultDead, p.Fractions) }},
		{Name: "fig15b", Desc: "out-of-view sweep (Fig. 15b)", Flags: []string{"-fractions"},
			Run: func(o Options, p Params) (*Result, error) { return Fig15(o, FaultOutOfView, p.Fractions) }},
		{Name: "churn", Desc: "dynamic membership: churn rate vs sampling-deadline success", Flags: []string{"-rates"},
			Run: func(o Options, p Params) (*Result, error) { return Churn(o, p.Rates) }},
		{Name: "ablation", Desc: "builder seeding-redundancy sweep (design knob, paper 9)", Flags: []string{"-sizes"},
			Run: func(o Options, p Params) (*Result, error) { return Ablation(o, p.Sizes) }},
		{Name: "confidence", Desc: "sampling false-positive analysis (Section 3)", Flags: []string{"-trials"},
			OneDeployment: true,
			Run: func(o Options, p Params) (*Result, error) {
				o = o.withDefaults()
				return Confidence(o.Core.Blob.N(), nil, p.Trials, o.Seed), nil
			}},
		{Name: "withholding", Desc: "withholding-detection table only (cluster vs Monte Carlo)", Flags: []string{"-trials"},
			Run: func(o Options, p Params) (*Result, error) { return Withholding(o, nil, p.Trials) }},
		{Name: "byzantine", Desc: "byzantine-fraction sweep only", Flags: []string{"-behavior", "-fractions"},
			Run: func(o Options, p Params) (*Result, error) { return Byzantine(o, p.Behavior, p.Fractions) }},
		{Name: "all", Desc: "the evaluation suite: every table and figure of Section 8 in one report (the source of EXPERIMENTS.md)",
			Flags: []string{"-sizes"}, Run: runAll},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Table() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ListText renders the -list output from the table.
func ListText() string {
	table := Table()
	width := 0
	for _, e := range table {
		width = max(width, len(e.Name))
	}
	var sb strings.Builder
	sb.WriteString("experiments:")
	for _, e := range table {
		fmt.Fprintf(&sb, "\n  %-*s %s", width, e.Name, e.Desc)
		if len(e.Flags) > 0 {
			fmt.Fprintf(&sb, " (%s)", strings.Join(e.Flags, " "))
		}
	}
	return sb.String()
}

// runAll runs the paper's evaluation suite in the paper's order, each
// step through its table entry, as one result with a part per step.
// -sizes sets the scaling sweep of fig13/fig14 (default nodes/2, nodes).
func runAll(o Options, p Params) (*Result, error) {
	o = o.withDefaults()
	if len(p.Sizes) == 0 {
		p.Sizes = []int{o.Nodes / 2, o.Nodes}
	}
	res := &Result{Title: fmt.Sprintf("PANDAS evaluation suite — %d nodes, %d slots, geometry %dx%d",
		o.Nodes, o.Slots, o.Core.Blob.N(), o.Core.Blob.N())}
	for _, name := range []string{"confidence", "fig9", "fig10", "table1", "fig11", "fig12",
		"fig13", "fig14", "fig15a", "fig15b"} {
		e, _ := Lookup(name)
		start := time.Now()
		part, err := e.Run(o, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "all: %s completed in %v\n", name, time.Since(start).Round(time.Millisecond))
		res.Parts = append(res.Parts, part)
	}
	return res, nil
}
