package swarm

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/wire"
)

// TestHostsFollowTheBuilder runs pandas-node's static deployment in one
// process: 8 node hosts and a builder host over loopback at the CLI's
// default geometry, seed 6 (every cell a node samples in slots 1-3 lies on
// a line with a holder). Slot 1 is started on
// the nodes by hand, as a supervisor would; slots 2 and 3 are driven at the
// builder only. One node hears nothing during slot 1, so it must report that
// slot once, timed out, and still complete slots 2 and 3 — the loop that
// advanced only on completion left it on slot 1 for good. Everyone else
// completes all three, and no forged or stale seed moves a host.
func TestHostsFollowTheBuilder(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	// At this seed nodes 4 and 7 are some sampled cell's only source in
	// slot 1; node 2 can go deaf without taking a peer down with it.
	const nodes, seed, deafNode = 8, 6, 2
	cfg, err := DefaultGeometry().CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.SeedWait, cfg.Deadline = 300*time.Millisecond, 500*time.Millisecond
	type report struct {
		node int
		Outcome
	}
	reports := make(chan report, 4*(nodes+1)) // at most 3 slots x 9 hosts are ever sent
	var deaf atomic.Bool                      // deafNode receives nothing while set
	deaf.Store(true)
	hosts := make([]*Host, nodes+1)
	addrs := make([]string, nodes+1)
	for i := range hosts {
		h, err := NewHost(HostOptions{Config: cfg, Seed: seed, Nodes: nodes, Index: i,
			Bind: "127.0.0.1:0", Outcome: func(o Outcome) { reports <- report{i, o} }})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Endpoint.Close()
		h.Endpoint.SetLinkPolicy(func(to int, _ []byte) (bool, time.Duration) {
			return to == deafNode && deaf.Load(), 0
		})
		hosts[i], addrs[i] = h, h.Endpoint.Addr()
	}
	for _, h := range hosts {
		if err := h.Endpoint.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}

	// runSlot seeds a slot and returns each node's one outcome for it.
	runSlot := func(slot uint64) []Outcome {
		hosts[nodes].StartSlot(slot)
		got := make([]*Outcome, nodes)
		for n := 0; n < nodes; {
			select {
			case r := <-reports:
				if r.node == nodes {
					if r.Seeding.Cells == 0 || r.Slot != slot {
						t.Fatalf("builder outcome %+v", r.Outcome)
					}
					continue
				}
				if r.Slot != slot || got[r.node] != nil {
					t.Fatalf("slot %d: stray or second outcome from node %d: slot %d done=%v",
						slot, r.node, r.Slot, r.Done)
				}
				got[r.node] = &r.Outcome
				n++
			case <-time.After(20 * time.Second):
				t.Fatalf("slot %d: %d of %d nodes reported", slot, n, nodes)
			}
		}
		out := make([]Outcome, nodes)
		for i, o := range got {
			out[i] = *o
		}
		return out
	}

	for _, h := range hosts[:nodes] {
		h.StartSlot(1)
	}
	for slot := uint64(1); slot <= 3; slot++ {
		for i, o := range runSlot(slot) {
			if want := i != deafNode || slot > 1; o.Done != want {
				t.Errorf("slot %d node %d: done=%v, want %v (seed=%v consolidated=%v sampled=%v)",
					slot, i, o.Done, want, o.Node.Seed >= 0, o.Node.Consolidation >= 0, o.Node.Sampling >= 0)
			} else if o.Done && (o.Node.Sampling < 0 || o.Node.Sampling > cfg.Deadline+2*time.Second) {
				t.Errorf("slot %d node %d: sampled at %v from its slot start", slot, i, o.Node.Sampling)
			}
		}
		deaf.Store(false)
	}

	// Seeds that must move nothing: unsigned, signed for another slot, and
	// correctly signed but not newer than the current slot.
	d, err := core.NewDeployment(cfg, seed, nodes)
	if err != nil {
		t.Fatal(err)
	}
	builderID := d.BuilderID
	sign := func(slot uint64) (sig [wire.SigSize]byte) {
		copy(sig[:], d.Proposer.Sign(wire.SeedSigningBytes(slot, builderID)))
		return sig
	}
	slotNow := make(chan uint64, 1)
	hosts[1].Endpoint.Run(func() {
		for _, m := range []*wire.Seed{
			{Slot: 9, Builder: builderID},
			{Slot: 9, Builder: builderID, ProposerSig: sign(3)},
			{Slot: 2, Builder: builderID, ProposerSig: sign(2)},
		} {
			hosts[1].dispatch(nodes, m.WireSize(cfg.Blob.CellBytes), m)
		}
		slotNow <- hosts[1].slot
	})
	if s := <-slotNow; s != 3 {
		t.Fatalf("forged or stale seeds moved node 1 to slot %d", s)
	}
	select {
	case r := <-reports:
		t.Fatalf("outcome after the last slot: node %d slot %d", r.node, r.Slot)
	default:
	}
}

// TestHostIsTheSimulatedDeployment: a host at (config, seed, N) holds the
// custody table of the simulated cluster at the same values, and its node
// draws that cluster node's samples in slot 1, so a swarm run and a simnet
// run at one seed are one deployment.
func TestHostIsTheSimulatedDeployment(t *testing.T) {
	const nodes, seed = 8, 7
	cfg, err := DefaultGeometry().CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.ClusterConfig{Core: cfg, N: nodes, Seed: seed, LossRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSlot(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		h, err := NewHost(HostOptions{Config: cfg, Seed: seed, Nodes: nodes, Index: i, Bind: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		samples := make(chan []blob.CellID, 1)
		h.StartSlot(1)
		h.Endpoint.Run(func() { samples <- h.Node.Samples() })
		got := <-samples
		h.Endpoint.Close()
		for j := 0; j < nodes; j++ {
			if a, b := h.Table.Assignment(j), c.Table().Assignment(j); h.Table.ID(j) != c.Table().ID(j) || !reflect.DeepEqual(a, b) {
				t.Fatalf("host %d: node %d custody %v, cluster %v", i, j, a, b)
			}
		}
		if want := c.Nodes()[i].Samples(); !slices.Equal(got, want) {
			t.Fatalf("node %d: host samples %v, cluster %v", i, got, want)
		}
	}
}
