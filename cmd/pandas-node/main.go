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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pandas/internal/blob"
	"pandas/internal/gateway"
	"pandas/internal/kzg"
	"pandas/internal/obsv"
	"pandas/internal/swarm"
	"pandas/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pandas-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pandas-node", flag.ContinueOnError)
	var (
		peersFile = fs.String("peers", "", "file listing host:port per participant; last entry is the builder")
		index     = fs.Int("index", -1, "this process's index into the peers file")
		builder   = fs.Bool("builder", false, "act as the builder (must be the last index)")
		slots     = fs.Int("slots", 1, "number of slots the builder drives")
		seed      = fs.Int64("seed", 42, "shared deployment seed (must match on all processes)")
		k         = fs.Int("k", 8, "base matrix size K (extended is 2K x 2K)")
		custody   = fs.Int("custody", 4, "rows and columns per node")
		samples   = fs.Int("samples", 6, "random cells sampled per slot")
		slotGap   = fs.Duration("slot-gap", 12*time.Second, "time between slots")
		metrics   = fs.String("metrics", "", "serve Prometheus text metrics at http://ADDR/metrics (e.g. :9464)")
		gwAddr    = fs.String("gateway", "", "serve light-client sampling queries at http://ADDR/v1/cell (non-builder only)")
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
	cfg, err := swarm.Geometry{K: *k, Custody: *custody, Samples: *samples,
		CellBytes: 64, Redundancy: 8}.CoreConfig()
	if err != nil {
		return err
	}

	var reg *obsv.Registry
	if *metrics != "" {
		reg = obsv.NewRegistry()
		cfg.Metrics = reg
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
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
	var h *swarm.Host
	var gw *gateway.Gateway
	if *gwAddr != "" && !*builder {
		gw, err = gateway.New(gateway.Config{Metrics: reg, Node: int32(*index),
			Upstream: gateway.UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
				return peek(ctx, h, slot, id)
			})})
		if err != nil {
			return err
		}
		defer gw.Close()
	}
	h, err = swarm.NewHost(swarm.HostOptions{Config: cfg, Seed: *seed, Nodes: nNodes, Index: *index,
		Bind: addrs[*index], Outcome: func(o swarm.Outcome) {
			if *builder {
				fmt.Printf("slot %d: seeded %d cells in %d messages (%d KB) to %d nodes\n", o.Slot,
					o.Seeding.Cells, o.Seeding.Messages, o.Seeding.Bytes/1024, o.Seeding.NodesSeeded)
				return
			}
			m := o.Metrics
			fmt.Printf("slot %d: seed=%v consolidated=%v sampled=%v\n",
				o.Slot, m.HasSeed, m.Consolidated, m.Sampled)
			if gw != nil {
				gw.StartSlot(o.Slot, kzg.Commitment{}) // advances the cache's retention window
			}
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
	// transport (deferred above), flush a final metrics snapshot, and
	// exit 0 — so fleet supervisors can recycle processes without
	// losing observability.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	drain := func(sig os.Signal) {
		fmt.Printf("pandas-node %d: draining on %v\n", *index, sig)
		if reg != nil {
			_ = reg.Snapshot().WritePrometheus(os.Stderr)
		}
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
		return nil
	}

	// The machine-parseable readiness probe: supervisors wait for this
	// line before driving traffic at the process.
	fmt.Printf("ready index=%d addr=%s custody=%v samples=%d\n",
		*index, ep.Addr(), h.Table.Assignment(*index).Lines(), cfg.Samples)

	if gw != nil {
		go func() {
			if err := http.ListenAndServe(*gwAddr, gatewayMux(gw, cfg.Blob.N())); err != nil {
				fmt.Fprintln(os.Stderr, "pandas-node: gateway server:", err)
			}
		}()
		fmt.Printf("sampling gateway at http://%s/v1/cell?slot=S&row=R&col=C\n", *gwAddr)
	}

	drain(<-sigc)
	return nil
}

// peek is the gateway's upstream: light clients query (slot, row, col)
// over HTTP; the gateway coalesces and caches so the node's event loop
// sees one Peek per distinct cell, not one per client. Cells in the node's
// custody store were verified on arrival, so the gateway serves them
// without re-proving.
func peek(ctx context.Context, h *swarm.Host, slot uint64, id blob.CellID) (wire.Cell, error) {
	type peeked struct {
		cell wire.Cell
		err  error
	}
	ch := make(chan peeked, 1)
	h.Endpoint.Run(func() {
		// The custody store only ever holds the node's CURRENT slot;
		// serving a query for any other slot from it would hand out
		// current-slot bytes mislabeled (and cached) as that slot. Checked
		// on the event loop, where the slot advances.
		if slot != h.Slot() {
			ch <- peeked{err: fmt.Errorf("slot %d not in custody (current slot %d)", slot, h.Slot())}
			return
		}
		c, ok := h.Node.Store().Peek(id)
		if !ok {
			ch <- peeked{err: fmt.Errorf("cell %v not in custody", id)}
			return
		}
		if c.Data != nil {
			// Peek aliases custody state that the node loop may replace
			// at the next slot; the gateway retains cells in its cache, so
			// take a private copy here.
			c.Data = append([]byte(nil), c.Data...)
		}
		ch <- peeked{cell: c}
	})
	select {
	case r := <-ch:
		return r.cell, r.err
	case <-ctx.Done():
		return wire.Cell{}, ctx.Err()
	}
}

// gatewayMux serves /v1/cell?slot=S&row=R&col=C from the gateway; n is the
// extended matrix width.
func gatewayMux(gw *gateway.Gateway, n int) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/cell", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		qslot, err1 := strconv.ParseUint(q.Get("slot"), 10, 64)
		row, err2 := strconv.Atoi(q.Get("row"))
		col, err3 := strconv.Atoi(q.Get("col"))
		if err1 != nil || err2 != nil || err3 != nil || row < 0 || row >= n || col < 0 || col >= n {
			http.Error(w, fmt.Sprintf("need slot, row, col (0..%d)", n-1), http.StatusBadRequest)
			return
		}
		cell, qerr := gw.Query(r.Context(), clientKey(r.RemoteAddr), qslot,
			blob.CellID{Row: uint16(row), Col: uint16(col)})
		if qerr != nil {
			var ra *gateway.RetryAfterError
			if errors.As(qerr, &ra) {
				secs := int(ra.After.Seconds() + 0.999)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				http.Error(w, qerr.Error(), http.StatusTooManyRequests)
				return
			}
			http.Error(w, qerr.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(map[string]any{
			"slot": qslot, "row": row, "col": col,
			"data": cell.Data, "proof": cell.Proof[:],
		}); err != nil {
			fmt.Fprintln(os.Stderr, "pandas-node: gateway response:", err)
		}
	})
	return mux
}

// clientKey folds a remote address into the gateway's per-client
// fairness key. Only the host half counts — keying on the full
// RemoteAddr (host:ephemeral-port) would grant a fresh MaxPerClient
// budget per TCP connection, letting one client dodge fairness by
// opening more connections.
func clientKey(remoteAddr string) int {
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil {
		host = remoteAddr
	}
	h := fnv.New32a()
	h.Write([]byte(host))
	return int(h.Sum32())
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
