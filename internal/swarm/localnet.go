package swarm

import (
	"time"

	"pandas/internal/core"
)

// Localnet is a real-UDP PANDAS deployment on the loopback interface: N
// node hosts plus one builder host in one process, each with its own
// socket and event loop. It is the repository's stand-in for the paper's
// 1,000-process cluster deployment and powers the localnet example and
// TestLocalnetSlotEndToEnd.
type Localnet struct {
	Cfg   core.Config
	Table *core.Table
	Nodes []*core.Node

	hosts []*Host // nodes 0..N-1, builder at index N

	// outcomes is every node host's sink. A node reports each slot once,
	// and RunSlot drains what an earlier call that timed out left behind,
	// so 2N slots keep the hosts' event loops from ever blocking on it.
	outcomes chan nodeOutcome
}

type nodeOutcome struct {
	node int
	Outcome
}

// NewLocalnet binds N node hosts and one builder host on 127.0.0.1 with
// real payloads; the builder seeds the deployment's filler blob.
func NewLocalnet(cfg core.Config, n int, seed int64) (*Localnet, error) {
	cfg.RealPayloads = true
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln := &Localnet{Cfg: cfg, outcomes: make(chan nodeOutcome, 2*n)}
	addrs := make([]string, n+1)
	for i := range addrs {
		opts := HostOptions{Config: cfg, Seed: seed, Nodes: n, Index: i, Bind: "127.0.0.1:0"}
		if i < n {
			opts.Outcome = func(o Outcome) { ln.outcomes <- nodeOutcome{i, o} }
		}
		h, err := NewHost(opts)
		if err != nil {
			ln.Close()
			return nil, err
		}
		ln.hosts = append(ln.hosts, h)
		addrs[i] = h.Endpoint.Addr()
		if i < n {
			ln.Nodes = append(ln.Nodes, h.Node)
		}
	}
	for _, h := range ln.hosts {
		if err := h.Endpoint.SetPeers(addrs); err != nil {
			ln.Close()
			return nil, err
		}
	}
	ln.Table = ln.hosts[0].Table
	return ln, nil
}

// RunSlot starts a slot on every node, triggers seeding, and waits (real
// time) until every node host has reported the slot — completed, or given
// up at Deadline + 2 s — or the timeout expires. It returns per-node
// sampling durations from the node's slot start (negative = did not
// finish).
func (ln *Localnet) RunSlot(slot uint64, timeout time.Duration) ([]time.Duration, error) {
	for _, h := range ln.hosts { // nodes first, the builder last
		h.StartSlot(slot)
	}
	times := make([]time.Duration, len(ln.Nodes))
	for i := range times {
		times[i] = -1
	}
	expired := time.After(timeout)
	for left := len(times); left > 0; {
		select {
		case o := <-ln.outcomes:
			if o.Slot != slot {
				continue
			}
			left--
			times[o.node] = o.Node.Sampling
		case <-expired:
			return times, nil
		}
	}
	return times, nil
}

// Close shuts down every endpoint.
func (ln *Localnet) Close() {
	for _, h := range ln.hosts {
		_ = h.Endpoint.Close()
	}
}
