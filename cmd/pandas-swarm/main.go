// Command pandas-swarm runs a multi-process PANDAS deployment on one
// machine: it launches N pandas-node worker processes plus a builder
// process, distributes configuration and the peer table over one loopback
// TCP control connection per worker, waits until every worker holds the
// full table, then drives slots end-to-end over real UDP sockets and
// prints a per-slot report in the simnet's schema. A worker whose control connection ends drains and
// exits, so no pandas-node process outlives its supervisor, however the
// supervisor went (-timeout included).
//
//	pandas-swarm -n 64 -slots 3
//	pandas-swarm -n 32 -slots 5 -kill 0.1        # kill 10% of nodes per slot
//	pandas-swarm -n 8 -bin ./pandas-node         # use a prebuilt worker binary
//
// Without -bin the worker binary is compiled from the enclosing module
// (go build pandas/cmd/pandas-node) into a temporary directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pandas/internal/swarm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pandas-swarm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pandas-swarm", flag.ContinueOnError)
	g := swarm.DefaultGeometry()
	fs.IntVar(&g.K, "k", g.K, "base matrix size K (extended is 2K x 2K)")
	fs.IntVar(&g.Custody, "custody", g.Custody, "rows and columns per node")
	fs.IntVar(&g.Samples, "samples", g.Samples, "random cells sampled per slot")
	var (
		n         = fs.Int("n", 64, "protocol nodes (one process each, plus a builder process)")
		slots     = fs.Int("slots", 3, "slots to drive")
		seed      = fs.Int64("seed", 42, "deployment seed")
		kill      = fs.Float64("kill", 0, "fraction of node processes killed per slot (fault injection)")
		killDelay = fs.Duration("kill-delay", 100*time.Millisecond, "kill injection delay after slot start")
		bin       = fs.String("bin", "", "prebuilt pandas-node binary (default: go build from the module)")
		timeout   = fs.Duration("timeout", 0, "hard wall-clock limit for the whole run (0 = none)")
		quiet     = fs.Bool("q", false, "suppress supervisor/worker diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "pandas-swarm: timeout after %v\n", *timeout)
			os.Exit(2)
		})
	}

	command := swarm.NodeBinaryCommand(*bin)
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "pandas-swarm: building pandas-node worker binary...")
		built, cleanup, err := swarm.BuildWorkerCommand()
		if err != nil {
			return err
		}
		defer cleanup()
		command = built
	}

	opts := swarm.Options{
		N:            *n,
		Slots:        *slots,
		Seed:         *seed,
		Geometry:     g,
		KillFraction: *kill,
		KillDelay:    *killDelay,
		Command:      command,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}

	res, err := swarm.Run(opts)
	if res != nil {
		fmt.Print(res.Render())
	}
	return err
}
