package swarm

import (
	"fmt"
	"time"

	"pandas/internal/core"
	"pandas/internal/ids"
	"pandas/internal/transport"
	"pandas/internal/wire"
)

// HostOptions describes one participant of a real-socket deployment.
type HostOptions struct {
	Config core.Config // protocol parameters (Geometry.CoreConfig for a swarm)
	Seed   int64       // deployment seed (core.NewDeployment)
	Nodes  int         // protocol nodes; index Nodes is the builder
	Index  int

	// Endpoint is a socket bound earlier (a swarm worker binds before its
	// config arrives); nil binds Bind.
	Endpoint *transport.UDP
	Bind     string

	// Outcome receives exactly one Outcome per slot the host ran, on the
	// event loop; it must not block.
	Outcome func(Outcome)
}

// Outcome is what a Host reports for one slot.
type Outcome struct {
	Slot uint64
	// Done is false when the host gave up at Deadline + 2 s or a newer
	// slot superseded this one before it completed.
	Done bool
	// Node is the node's Node.Outcome, its times relative to the slot
	// start on the host's own clock (zero on the builder). Rounds aliases
	// the node's live view: copy it to keep it.
	Node core.NodeOutcome
	// Seeding is the builder's report (zero on nodes).
	Seeding core.SeedingReport
}

// Host is one PANDAS participant on a real UDP socket: the endpoint, the
// node or builder every process derives identically from the deployment
// seed, and the slot lifecycle. pandas-node, the swarm worker and Localnet
// are all callers of it.
//
// A node follows the builder: a seed for a slot newer than its current
// one starts that slot if the proposer signature verifies, so a host
// needs no StartSlot at all to take part; unsigned and stale seeds move
// nothing.
type Host struct {
	Endpoint *transport.UDP
	Table    *core.Table
	Node     *core.Node    // nil on the builder's host
	Builder  *core.Builder // nil on a node's host

	o        HostOptions
	proposer *ids.Identity

	// Slot state, touched on the event loop only.
	slot     uint64
	start    time.Duration
	reported bool
}

// NewHost builds the participant and starts its event loop. The caller
// fills the peer table (Endpoint.SetPeers) and closes Endpoint.
func NewHost(o HostOptions) (*Host, error) {
	if o.Index < 0 || o.Index > o.Nodes {
		return nil, fmt.Errorf("swarm: index %d out of range (%d nodes + builder)", o.Index, o.Nodes)
	}
	d, err := core.NewDeployment(o.Config, o.Seed, o.Nodes)
	if err != nil {
		return nil, err
	}
	ep := o.Endpoint
	if ep != nil {
		ep.SetCellBytes(o.Config.Blob.CellBytes)
	} else if ep, err = transport.NewUDP(o.Index, o.Bind, o.Config.Blob.CellBytes); err != nil {
		return nil, err
	}
	h := &Host{Endpoint: ep, Table: d.Table, o: o, proposer: d.Proposer}
	if o.Index < o.Nodes {
		h.Node = d.NewNode(o.Index, ep)
		h.Node.SetSeedVerification(h.proposer.Public)
		h.Node.OnSlotDone(func() { h.finish(true) })
	} else {
		h.Builder = d.NewBuilder(ep)
		if err := h.Builder.PrepareBlob(FillerBlob(o.Config)); err != nil {
			if o.Endpoint == nil {
				_ = ep.Close()
			}
			return nil, err
		}
	}
	ep.Start(h.dispatch)
	return h, nil
}

// StartSlot asks the host to run a slot: a node starts it, the builder
// seeds it. Slots at or below the current one are ignored (control-plane
// retries). Safe from any goroutine; the work happens on the event loop.
func (h *Host) StartSlot(slot uint64) {
	h.Endpoint.Run(func() { h.startSlot(slot) })
}

func (h *Host) dispatch(from, size int, payload any) {
	if h.Node == nil {
		return
	}
	// Follow the builder. The check is the one Node.seedSigned makes, so a
	// seed that moves the host is one the node will accept.
	if m, ok := payload.(*wire.Seed); ok && m.Slot > h.slot && ids.VerifyFrom(
		h.proposer.Public, wire.SeedSigningBytes(m.Slot, m.Builder), m.ProposerSig[:]) {
		h.startSlot(m.Slot)
	}
	h.Node.HandleMessage(from, size, payload)
}

func (h *Host) startSlot(slot uint64) {
	if slot <= h.slot {
		return
	}
	if h.Builder != nil {
		h.slot = slot
		h.deliver(Outcome{Slot: slot, Done: true, Seeding: h.Builder.SeedSlot(slot)})
		return
	}
	h.finish(false) // an unfinished slot is superseded
	h.slot, h.start, h.reported = slot, h.Endpoint.Now(), false
	h.Node.StartSlot(slot)
	h.Endpoint.After(h.o.Config.Deadline+2*time.Second, func() {
		if h.slot == slot {
			h.finish(false)
		}
	})
}

// finish reports the node's current slot unless it already was reported.
func (h *Host) finish(done bool) {
	if h.slot == 0 || h.reported {
		return
	}
	h.reported = true
	h.deliver(Outcome{Slot: h.slot, Done: done, Node: h.Node.Outcome(h.start)})
}

// deliver hands the outcome to the caller.
func (h *Host) deliver(o Outcome) {
	if h.o.Outcome != nil {
		h.o.Outcome(o)
	}
}
