package experiments

// The experiment registry. Every runnable experiment is one table entry
// — name, description, the shared parameter flags it consumes, and a
// uniform Run hook — so the CLIs dispatch and generate their -list
// output from the table instead of a hand-maintained switch that had to
// be edited in three places per new experiment.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/core"
)

// Params carries the cross-experiment knobs a CLI binds once and every
// experiment reads from. Zero values mean "use the experiment default";
// DefaultParams fills the fields whose zero value is not a sensible
// default.
type Params struct {
	// Sizes is the network-size sweep (fig13, fig14, scale) or the
	// redundancy sweep (ablation).
	Sizes []int
	// Fractions is the fault/byzantine fraction sweep in [0, 1).
	Fractions []float64
	// Rates is the churn sweep (departures/node/slot).
	Rates []float64
	// Trials is the Monte Carlo trial count (confidence, adversary).
	Trials int
	// Behavior is the byzantine behavior under test.
	Behavior adversary.Behavior
	// Clients, QueriesPerClient, Zipf drive the gateway load model.
	Clients          int
	QueriesPerClient int
	Zipf             float64
}

// DefaultParams returns the parameter defaults the old CLI flags used.
func DefaultParams() Params {
	return Params{
		Trials:           20000,
		Behavior:         adversary.Silent,
		Clients:          100_000,
		QueriesPerClient: 3,
		Zipf:             1.2,
	}
}

// FlagBinder is handed to each experiment's Flags hook. The hook calls
// one method per shared parameter it consumes; the binder registers the
// corresponding flag exactly once across all experiments (the flags are
// shared, so fig13 and fig14 both declaring Sizes is one -sizes flag)
// and records the names so -list can show which flags an experiment
// honors.
type FlagBinder struct {
	fs    *flag.FlagSet // nil when only recording names for -list
	p     *Params
	bound map[string]bool // dedup across experiments
	names []string        // this experiment's flags, in declaration order
}

func (b *FlagBinder) bind(name string, register func()) {
	b.names = append(b.names, "-"+name)
	if b.fs == nil || b.bound[name] {
		return
	}
	b.bound[name] = true
	register()
}

// Sizes binds -sizes (comma-separated positive integers).
func (b *FlagBinder) Sizes() {
	b.bind("sizes", func() {
		b.fs.Var(&intListValue{name: "-sizes", dst: &b.p.Sizes}, "sizes",
			"comma-separated sweep values (network sizes; seeding redundancies for ablation)")
	})
}

// Fractions binds -fractions (comma-separated floats in [0, 1)).
func (b *FlagBinder) Fractions() {
	b.bind("fractions", func() {
		b.fs.Var(&floatListValue{name: "-fractions", dst: &b.p.Fractions, min: 0, max: 1}, "fractions",
			"comma-separated fault/byzantine fractions in [0,1)")
	})
}

// Rates binds -rates (comma-separated non-negative floats).
func (b *FlagBinder) Rates() {
	b.bind("rates", func() {
		b.fs.Var(&floatListValue{name: "-rates", dst: &b.p.Rates, min: 0, max: math.Inf(1)}, "rates",
			"comma-separated churn rates (departures/node/slot)")
	})
}

// Trials binds -trials.
func (b *FlagBinder) Trials() {
	b.bind("trials", func() {
		b.fs.IntVar(&b.p.Trials, "trials", b.p.Trials, "Monte Carlo trials")
	})
}

// Behavior binds -behavior (silent, laggard, garbage).
func (b *FlagBinder) Behavior() {
	b.bind("behavior", func() {
		b.fs.Var(&behaviorValue{dst: &b.p.Behavior}, "behavior",
			"byzantine behavior: silent laggard garbage")
	})
}

// Gateway binds the gateway load-model flags.
func (b *FlagBinder) Gateway() {
	b.bind("clients", func() {
		b.fs.IntVar(&b.p.Clients, "clients", b.p.Clients, "gateway: concurrent synthetic light clients per slot")
	})
	b.bind("queries", func() {
		b.fs.IntVar(&b.p.QueriesPerClient, "queries", b.p.QueriesPerClient, "gateway: sampling queries per client per slot")
	})
	b.bind("zipf", func() {
		b.fs.Float64Var(&b.p.Zipf, "zipf", b.p.Zipf, "gateway: zipf exponent of cell popularity (>1)")
	})
}

// behaviorValue adapts adversary.Behavior to flag.Value.
type behaviorValue struct{ dst *adversary.Behavior }

var behaviorNames = map[string]adversary.Behavior{
	"silent":  adversary.Silent,
	"laggard": adversary.Laggard,
	"garbage": adversary.Garbage,
}

func (v *behaviorValue) String() string {
	if v == nil || v.dst == nil {
		return ""
	}
	for name, b := range behaviorNames {
		if b == *v.dst {
			return name
		}
	}
	return ""
}

func (v *behaviorValue) Set(s string) error {
	b, ok := behaviorNames[s]
	if !ok {
		names := make([]string, 0, len(behaviorNames))
		for n := range behaviorNames {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown behavior %q (%s)", s, strings.Join(names, ", "))
	}
	*v.dst = b
	return nil
}

// Experiment is one registry entry.
type Experiment struct {
	// Name is the -exp selector.
	Name string
	// Desc is the one-line -list description.
	Desc string
	// Flags declares the shared Params flags the experiment consumes
	// (nil if it only uses the base options).
	Flags func(*FlagBinder)
	// Run executes the experiment.
	Run func(Options, *Params) (*Result, error)
}

// registry holds the experiments in paper order (the -list order).
var registry []Experiment

func register(e Experiment) {
	if e.Name == "" || e.Run == nil {
		panic("experiments: register: incomplete entry")
	}
	for _, prev := range registry {
		if prev.Name == e.Name {
			panic("experiments: duplicate experiment " + e.Name)
		}
	}
	registry = append(registry, e)
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the registered experiment names in -list order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// BindFlags registers the union of every experiment's shared flags on
// fs, each exactly once, targeting p. CLIs call this before flag
// parsing; per-experiment validity is not enforced (passing -sizes to
// fig9 is ignored, as with the old hand-rolled flag set).
func BindFlags(fs *flag.FlagSet, p *Params) {
	b := &FlagBinder{fs: fs, p: p, bound: make(map[string]bool)}
	for _, e := range registry {
		if e.Flags != nil {
			b.names = b.names[:0]
			e.Flags(b)
		}
	}
}

// flagNames returns the flags an experiment declares, for -list.
func flagNames(e Experiment) []string {
	if e.Flags == nil {
		return nil
	}
	b := &FlagBinder{}
	e.Flags(b)
	return b.names
}

// ListText renders the -list output from the registry.
func ListText() string {
	var sb strings.Builder
	sb.WriteString("experiments:\n")
	width := 0
	for _, e := range registry {
		if len(e.Name) > width {
			width = len(e.Name)
		}
	}
	for _, e := range registry {
		fmt.Fprintf(&sb, "  %-*s %s", width, e.Name, e.Desc)
		if names := flagNames(e); len(names) > 0 {
			fmt.Fprintf(&sb, " (%s)", strings.Join(names, " "))
		}
		sb.WriteByte('\n')
	}
	return strings.TrimRight(sb.String(), "\n")
}

func init() {
	register(Experiment{Name: "fig9", Desc: "phase-time distributions per seeding policy (Fig. 9a-d)",
		Run: func(o Options, _ *Params) (*Result, error) { return Fig9(o) }})
	register(Experiment{Name: "fig10", Desc: "per-node fetch traffic per policy (Fig. 10)",
		Run: func(o Options, _ *Params) (*Result, error) { return Fig10(o) }})
	register(Experiment{Name: "table1", Desc: "per-round fetching statistics (Table 1)",
		Run: func(o Options, _ *Params) (*Result, error) { return Table1(o) }})
	register(Experiment{Name: "fig11", Desc: "adaptive vs constant fetching (Fig. 11)",
		Run: func(o Options, _ *Params) (*Result, error) { return Fig11(o) }})
	register(Experiment{Name: "fig12", Desc: "PANDAS vs GossipSub vs DHT at one scale (Fig. 12)",
		Run: func(o Options, _ *Params) (*Result, error) { return Fig12(o) }})
	register(Experiment{Name: "fig13", Desc: "PANDAS scaling sweep (Fig. 13)",
		Flags: func(b *FlagBinder) { b.Sizes() },
		Run:   func(o Options, p *Params) (*Result, error) { return Fig13(o, p.Sizes) }})
	register(Experiment{Name: "fig14", Desc: "system comparison across scales (Fig. 14)",
		Flags: func(b *FlagBinder) { b.Sizes() },
		Run:   func(o Options, p *Params) (*Result, error) { return Fig14(o, p.Sizes) }})
	register(Experiment{Name: "fig15a", Desc: "dead-node sweep (Fig. 15a)",
		Flags: func(b *FlagBinder) { b.Fractions() },
		Run:   func(o Options, p *Params) (*Result, error) { return Fig15(o, FaultDead, p.Fractions) }})
	register(Experiment{Name: "fig15b", Desc: "out-of-view sweep (Fig. 15b)",
		Flags: func(b *FlagBinder) { b.Fractions() },
		Run:   func(o Options, p *Params) (*Result, error) { return Fig15(o, FaultOutOfView, p.Fractions) }})
	register(Experiment{Name: "churn", Desc: "dynamic membership: churn rate vs sampling-deadline success",
		Flags: func(b *FlagBinder) { b.Rates() },
		Run:   func(o Options, p *Params) (*Result, error) { return Churn(o, p.Rates) }})
	register(Experiment{Name: "ablation", Desc: "builder seeding-redundancy sweep (design knob, paper 9)",
		Flags: func(b *FlagBinder) { b.Sizes() },
		Run:   func(o Options, p *Params) (*Result, error) { return Ablation(o, p.Sizes) }})
	register(Experiment{Name: "validate", Desc: "metadata vs real data plane cross-validation (8.2)",
		Run: func(o Options, _ *Params) (*Result, error) { return Validate(o) }})
	register(Experiment{Name: "confidence", Desc: "sampling false-positive analysis (Section 3)",
		Flags: func(b *FlagBinder) { b.Trials() },
		Run: func(o Options, p *Params) (*Result, error) {
			o = o.withDefaults()
			return Confidence(o.Core.Blob.N(), nil, p.Trials, o.Seed), nil
		}})
	register(Experiment{Name: "adversary", Desc: "withholding detection + byzantine-fraction sweep (threat model)",
		Flags: func(b *FlagBinder) { b.Behavior(); b.Fractions(); b.Trials() },
		Run: func(o Options, p *Params) (*Result, error) {
			return Adversary(o, p.Behavior, p.Fractions, p.Trials)
		}})
	register(Experiment{Name: "withholding", Desc: "withholding-detection table only (cluster vs Monte Carlo)",
		Flags: func(b *FlagBinder) { b.Trials() },
		Run:   func(o Options, p *Params) (*Result, error) { return Withholding(o, nil, p.Trials) }})
	register(Experiment{Name: "byzantine", Desc: "byzantine-fraction sweep only",
		Flags: func(b *FlagBinder) { b.Behavior(); b.Fractions() },
		Run:   func(o Options, p *Params) (*Result, error) { return Byzantine(o, p.Behavior, p.Fractions) }})
	register(Experiment{Name: "gateway", Desc: "sampling-gateway load: coalescing/cache under 100k+ light clients",
		Flags: func(b *FlagBinder) { b.Gateway() },
		Run: func(o Options, p *Params) (*Result, error) {
			return GatewayLoad(o, GatewayLoadOptions{
				Clients: p.Clients, QueriesPerClient: p.QueriesPerClient, ZipfS: p.Zipf,
			})
		}})
	register(Experiment{Name: "scale", Desc: "simulator capacity: bytes/node, event throughput, deadline rate vs N",
		Flags: func(b *FlagBinder) { b.Sizes() },
		Run:   func(o Options, p *Params) (*Result, error) { return Scale(o, p.Sizes) }})
	register(Experiment{Name: "swarm", Desc: "multi-process deployment: real UDP, discovery, crash-restart (one process per node)",
		Flags: func(b *FlagBinder) { b.Fractions() },
		Run: func(o Options, p *Params) (*Result, error) {
			kill := 0.0
			if len(p.Fractions) > 0 {
				kill = p.Fractions[0]
			}
			return Swarm(o, kill)
		}})
	register(Experiment{Name: "all", Desc: "the evaluation suite: every table and figure of Section 8 in one report (the source of EXPERIMENTS.md)",
		Flags: func(b *FlagBinder) { b.Sizes() },
		Run:   runAll})
}

// runAll runs the paper's evaluation suite in the paper's order, each
// step through its registry entry, as one result with a part per step.
// -sizes sets the scaling sweep of fig13/fig14 (default nodes/2, nodes).
func runAll(o Options, p *Params) (*Result, error) {
	o = o.withDefaults()
	params := *p
	if len(params.Sizes) == 0 {
		params.Sizes = []int{o.Nodes / 2, o.Nodes}
	}
	res := &Result{Title: fmt.Sprintf("PANDAS evaluation suite — %d nodes, %d slots, geometry %dx%d",
		o.Nodes, o.Slots, o.Core.Blob.N(), o.Core.Blob.N())}
	for _, name := range []string{"confidence", "fig9", "fig10", "table1", "fig11", "fig12",
		"fig13", "fig14", "fig15a", "fig15b", "validate"} {
		so := o
		if name == "validate" {
			// The real data plane erasure-codes actual bytes; at the full
			// 512x512 geometry a single blob extension is minutes of CPU, so
			// the cross-validation always runs on the scaled-down geometry
			// (identical code paths).
			so.Core = core.TestConfig()
			if so.Nodes > 200 {
				so.Nodes = 200
			}
		}
		e, _ := Lookup(name)
		start := time.Now()
		part, err := e.Run(so, &params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "all: %s completed in %v\n", name, time.Since(start).Round(time.Millisecond))
		res.Parts = append(res.Parts, part)
	}
	return res, nil
}
