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
//	pandas-sim -list
//
// The default parameters are the paper's full Danksharding configuration
// (512x512 extended matrix); use -small for the scaled-down geometry when
// exploring on a laptop.
package main

import (
	"flag"
	"fmt"
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

// listOutput is the registry-generated -list text.
func listOutput() string { return experiments.ListText() }

func run(args []string) error {
	fs := flag.NewFlagSet("pandas-sim", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "", "experiment to run (use -list to enumerate)")
		nodes  = fs.Int("nodes", 1000, "network size")
		slots  = fs.Int("slots", 10, "slots to aggregate")
		seed   = fs.Int64("seed", 1, "random seed")
		small  = fs.Bool("small", false, "use the scaled-down 32x32 geometry (fast)")
		loss   = fs.Float64("loss", -1, "message loss rate in [0,1) (unset: simulator default 3%; 0 disables loss)")
		list   = fs.Bool("list", false, "list experiments and exit")
		csvDir = fs.String("csv", "", "also write the sampling CDF of each row as CSV into this directory")
		trace  = fs.String("trace", "", "record a protocol event trace and write it to this JSONL file")
	)
	params := experiments.DefaultParams()
	experiments.BindFlags(fs, &params)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(listOutput())
		return nil
	}
	e, ok := experiments.Lookup(*exp)
	if !ok {
		if *exp == "" {
			return fmt.Errorf("missing -exp (use -list to enumerate)")
		}
		return fmt.Errorf("unknown experiment %q (use -list to enumerate)", *exp)
	}
	o := experiments.Options{Nodes: *nodes, Slots: *slots, Seed: *seed}
	lossSet := false
	fs.Visit(func(f *flag.Flag) { lossSet = lossSet || f.Name == "loss" })
	if lossSet {
		if *loss < 0 || *loss >= 1 {
			return fmt.Errorf("-loss: %v is not in [0, 1)", *loss)
		}
		o.LossRate = experiments.Loss(*loss)
	}
	if *small {
		o.Core = core.TestConfig()
	} else {
		o.Core = core.DefaultConfig()
	}
	var ring *obsv.Ring
	if *trace != "" {
		var rerr error
		ring, rerr = obsv.NewRing(o.Core.TraceRing)
		if rerr != nil {
			return rerr
		}
		o.Core.Recorder = ring
	}

	res, err := e.Run(o, &params)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, *exp, res); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
	}
	if ring != nil {
		if err := writeTrace(*trace, ring); err != nil {
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
