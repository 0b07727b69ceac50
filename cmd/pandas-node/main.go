// Command pandas-node runs a real PANDAS participant over UDP. Multiple
// processes (on one machine or a LAN) form a deployment: every process
// gets the same peers file (one host:port per line; the LAST entry is
// the builder) and its own index. The process with -builder seeds a blob
// each slot; the others follow it from slot to slot (a correctly signed
// seed for a newer slot starts that slot), custody, consolidate, and
// sample, and print one line per slot.
//
// Example, a four-node deployment plus builder in five shells:
//
//	pandas-node -peers peers.txt -index 0
//	pandas-node -peers peers.txt -index 1
//	pandas-node -peers peers.txt -index 2
//	pandas-node -peers peers.txt -index 3
//	pandas-node -peers peers.txt -index 4 -builder -slots 3
//
// For a self-contained single-process demo, see examples/localnet.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pandas/internal/swarm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pandas-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pandas-node", flag.ContinueOnError)
	g := swarm.DefaultGeometry()
	fs.IntVar(&g.K, "k", g.K, "base matrix size K (extended is 2K x 2K)")
	fs.IntVar(&g.Custody, "custody", g.Custody, "rows and columns per node")
	fs.IntVar(&g.Samples, "samples", g.Samples, "random cells sampled per slot")
	var (
		peersFile = fs.String("peers", "", "file listing host:port per participant; last entry is the builder")
		index     = fs.Int("index", -1, "this process's index into the peers file")
		builder   = fs.Bool("builder", false, "act as the builder (must be the last index)")
		slots     = fs.Int("slots", 1, "number of slots the builder drives")
		seed      = fs.Int64("seed", 42, "shared deployment seed (must match on all processes)")
		slotGap   = fs.Duration("slot-gap", 12*time.Second, "time between slots")
		metrics   = fs.String("metrics", "", "serve Prometheus text metrics at http://ADDR/metrics (e.g. :9464)")
		swarmSup  = fs.String("swarm", "", "run as a swarm worker of the supervisor listening on TCP ADDR (config arrives over that connection and the worker exits when it ends; only -index applies)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *swarmSup != "" {
		if *index < 0 {
			return fmt.Errorf("-swarm requires -index")
		}
		return swarm.RunWorker(swarm.WorkerOptions{
			Supervisor: *swarmSup,
			Index:      *index,
			Log:        os.Stderr,
		})
	}
	if *peersFile == "" || *index < 0 {
		return fmt.Errorf("both -peers and -index are required")
	}
	addrs, err := readPeers(*peersFile)
	if err != nil {
		return err
	}
	if *index >= len(addrs) {
		return fmt.Errorf("index %d out of range (%d peers)", *index, len(addrs))
	}
	nNodes := len(addrs) - 1 // last entry is the builder
	if *builder != (*index == nNodes) {
		return fmt.Errorf("-builder goes with the last index (%d) and no other, got index %d", nNodes, *index)
	}
	cfg, err := g.CoreConfig()
	if err != nil {
		return err
	}

	var tot *totals
	if *metrics != "" {
		tot = &totals{builder: *builder}
		mux := http.NewServeMux()
		mux.Handle("/metrics", tot)
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "pandas-node: metrics server:", err)
			}
		}()
		fmt.Printf("metrics exposition at http://%s/metrics\n", *metrics)
	}

	// The host derives identities, table, proposer and filler data from
	// the seed exactly as a swarm worker does, so a hand-launched node and
	// a swarm node with the same seed agree on who is who. A node follows
	// the builder from slot to slot; each slot yields one report line.
	h, err := swarm.NewHost(swarm.HostOptions{Config: cfg, Seed: *seed, Nodes: nNodes, Index: *index,
		Bind: addrs[*index], Outcome: func(o swarm.Outcome) {
			if tot != nil {
				tot.add(o)
			}
			if *builder {
				fmt.Printf("slot %d: seeded %d cells in %d messages (%d KB) to %d nodes\n", o.Slot,
					o.Seeding.Cells, o.Seeding.Messages, o.Seeding.Bytes/1024, o.Seeding.NodesSeeded)
				return
			}
			fmt.Printf("slot %d: seed=%v consolidated=%v sampled=%v\n",
				o.Slot, o.Node.Seed >= 0, o.Node.Consolidation >= 0, o.Node.Sampling >= 0)
		}})
	if err != nil {
		return err
	}
	ep := h.Endpoint
	defer ep.Close()
	if err := ep.SetPeers(addrs); err != nil {
		return err
	}
	fmt.Printf("pandas-node %d listening on %s (%d peers)\n", *index, ep.Addr(), len(addrs))

	// Graceful drain: on SIGINT/SIGTERM stop cleanly — close the
	// transport (deferred above), write the final totals, and exit 0 — so
	// fleet supervisors can recycle processes without losing
	// observability. A builder that ran all its slots writes them too.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	flush := func() {
		if tot != nil {
			fmt.Fprint(os.Stderr, tot.text())
		}
	}
	drain := func(sig os.Signal) {
		fmt.Printf("pandas-node %d: draining on %v\n", *index, sig)
		flush()
	}

	if *builder {
		for s := 1; s <= *slots; s++ {
			h.StartSlot(uint64(s))
			wait := *slotGap
			if s == *slots {
				wait = 2 * time.Second // let the last seeds leave the socket before exiting
			}
			select {
			case <-time.After(wait):
			case sig := <-sigc:
				drain(sig)
				return nil
			}
		}
		flush()
		return nil
	}

	// The machine-parseable readiness probe: supervisors wait for this
	// line before driving traffic at the process.
	fmt.Printf("ready index=%d addr=%s custody=%v samples=%d\n",
		*index, ep.Addr(), h.Table.Assignment(*index).Lines(), cfg.Samples)

	drain(<-sigc)
	return nil
}

func readPeers(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}
