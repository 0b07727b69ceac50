// Command pandas-sim runs one of the paper's evaluation experiments and
// prints the corresponding table/figure data.
//
// Usage:
//
//	pandas-sim -exp fig9  -nodes 1000 -slots 10
//	pandas-sim -exp fig13 -sizes 1000,3000,5000
//	pandas-sim -exp table1 -nodes 1000
//	pandas-sim -exp confidence
//	pandas-sim -exp all -nodes 300 -slots 1 -sizes 150,300   # the whole suite, one report
//	pandas-sim -exp table1 -nodes 1000 -slots 1 -trace run.jsonl
//	pandas-sim -list
//
// -trace records the protocol events of an experiment that simulates one
// deployment (table1); pandas-sim refuses it on the others.
//
// The default parameters are the paper's full Danksharding configuration
// (512x512 extended matrix); use -small for the scaled-down geometry when
// exploring on a laptop.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pandas/internal/core"
	"pandas/internal/experiments"
	"pandas/internal/obsv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pandas-sim:", err)
		os.Exit(1)
	}
}

// settings are the parsed command line.
type settings struct {
	exp, csvDir, trace string
	nodes, slots       int
	seed               int64
	small, list        bool
	params             experiments.Params
}

// newFlagSet declares every pandas-sim flag on s: the base options and,
// parsed strictly, the Params fields the table's experiments read.
func newFlagSet(s *settings) *flag.FlagSet {
	fs := flag.NewFlagSet("pandas-sim", flag.ContinueOnError)
	fs.StringVar(&s.exp, "exp", "", "experiment to run (use -list to enumerate)")
	fs.IntVar(&s.nodes, "nodes", 1000, "network size")
	fs.IntVar(&s.slots, "slots", 10, "slots to aggregate")
	fs.Int64Var(&s.seed, "seed", 1, "random seed")
	fs.BoolVar(&s.small, "small", false, "use the scaled-down 32x32 geometry (fast)")
	fs.BoolVar(&s.list, "list", false, "list experiments and exit")
	fs.StringVar(&s.csvDir, "csv", "", "also write the sampling CDF of each row as CSV into this directory")
	fs.StringVar(&s.trace, "trace", "", "record a protocol event trace and write it to this JSONL file")

	s.params = experiments.DefaultParams()
	p := &s.params
	fs.Func("sizes", "comma-separated sweep values (network sizes; seeding redundancies for ablation)",
		func(v string) (err error) {
			p.Sizes, err = experiments.ParseIntList("-sizes", v)
			return err
		})
	fs.Func("fractions", "comma-separated fault/byzantine fractions in [0,1)",
		func(v string) (err error) {
			p.Fractions, err = experiments.ParseFloatList("-fractions", v, 0, 1)
			return err
		})
	fs.Func("rates", "comma-separated churn rates (departures/node/slot)",
		func(v string) (err error) {
			p.Rates, err = experiments.ParseFloatList("-rates", v, 0, math.Inf(1))
			return err
		})
	fs.IntVar(&p.Trials, "trials", p.Trials, "Monte Carlo trials")
	fs.Func("behavior", "byzantine behavior: silent laggard garbage",
		func(v string) (err error) {
			p.Behavior, err = experiments.ParseBehavior(v)
			return err
		})
	return fs
}

func run(args []string) error {
	var s settings
	if err := newFlagSet(&s).Parse(args); err != nil {
		return err
	}
	if s.list {
		fmt.Println(experiments.ListText())
		return nil
	}
	e, ok := experiments.Lookup(s.exp)
	if !ok {
		if s.exp == "" {
			return fmt.Errorf("missing -exp (use -list to enumerate)")
		}
		return fmt.Errorf("unknown experiment %q (use -list to enumerate)", s.exp)
	}
	if s.trace != "" && !e.OneDeployment {
		return fmt.Errorf("-trace: %s simulates more than one deployment, and one trace cannot tell their events apart (table1 simulates one)", s.exp)
	}
	o := experiments.Options{Nodes: s.nodes, Slots: s.slots, Seed: s.seed}
	if s.small {
		o.Core = core.TestConfig()
	} else {
		o.Core = core.DefaultConfig()
	}
	var ring *obsv.Ring
	if s.trace != "" {
		var rerr error
		ring, rerr = obsv.NewRing(o.Core.TraceRing)
		if rerr != nil {
			return rerr
		}
		o.Core.Recorder = ring
	}

	res, err := e.Run(o, s.params)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	if s.csvDir != "" {
		if err := writeCSVs(s.csvDir, s.exp, res); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
	}
	if ring != nil {
		if err := writeTrace(s.trace, ring); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// writeTrace dumps the recorded events as JSON Lines (load them back
// with obsv.ReadJSONL / obsv.NewTimeline).
func writeTrace(path string, ring *obsv.Ring) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := ring.Events()
	if err := obsv.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if lost := ring.Overwritten(); lost > 0 {
		fmt.Fprintf(os.Stderr, "trace: ring wrapped, oldest %d of %d events lost (raise Config.TraceRing)\n",
			lost, ring.Recorded())
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %d events to %s\n", len(events), path)
	return nil
}

// writeCSVs exports each labelled sample's sampling CDF, ready to plot
// (<exp>-<label>.csv), and with it the block-reception CDF when the run
// gossiped blocks (<exp>-<label>-block.csv). The samples of a result's
// parts are named by the part's position: <exp>-<part>-<label>.csv, with
// part counted from 1 (fig14's sizes, each step of -exp all).
func writeCSVs(dir, exp string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, d *obsv.Distribution) error {
		if d == nil || d.Count() == 0 {
			return nil
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := d.WriteCDFCSV(f, 100); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	for _, s := range res.Samples {
		if err := write(exp+"-"+s.Label, s.Sampling); err != nil {
			return err
		}
		if err := write(exp+"-"+s.Label+"-block", s.Block); err != nil {
			return err
		}
	}
	for i, p := range res.Parts {
		if err := writeCSVs(dir, fmt.Sprintf("%s-%d", exp, i+1), p); err != nil {
			return err
		}
	}
	return nil
}
