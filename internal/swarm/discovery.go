package swarm

import (
	"net/netip"

	"pandas/internal/transport"
	"pandas/internal/wire"
)

// discovery is the worker's peer-discovery plane: a discv5-style
// iterative crawl over the data-plane socket. Each round the worker
// sends FindPeers — announcing its own (index, addr) — to every peer it
// knows; receivers register the sender and reply with their full table,
// so knowledge floods outward from the bootstrap set until everyone
// knows everyone. A restarted worker re-enters the same way: its
// first-hand FindPeers announcements rebind its index to the fresh
// socket in every receiver's table.
//
// All methods run on the endpoint's event loop (handle/handleUnknown
// are called from the transport's dispatcher; round is scheduled with
// ep.Run), so no locking is needed beyond the transport's own.
type discovery struct {
	ep    *transport.UDP
	self  int
	total int // table size when complete (nodes + builder)
	nonce uint64
}

func newDiscovery(ep *transport.UDP, self, total int) *discovery {
	return &discovery{ep: ep, self: self, total: total}
}

// converged reports whether the full table is known.
func (d *discovery) converged() bool { return d.ep.Known() >= d.total }

// round sends a FindPeers announcement to every known peer. Called
// periodically until convergence, plus one final round after, so peers
// that learned of us second-hand get our first-hand binding too.
func (d *discovery) round() {
	d.nonce++
	fp := &wire.FindPeers{Nonce: d.nonce, Index: uint32(d.self), Addr: d.ep.Addr()}
	for i, addr := range d.ep.Peers() {
		if i == d.self || addr == "" {
			continue
		}
		d.ep.Send(i, fp.WireSize(0), fp)
	}
}

// handle processes discovery messages from senders already in the peer
// table. Returns false for non-discovery payloads so the caller can
// route them to the protocol handler.
func (d *discovery) handle(from, size int, payload any) bool {
	switch m := payload.(type) {
	case *wire.FindPeers:
		d.serve(m, netip.AddrPort{})
	case *wire.Peers:
		d.merge(m.Entries)
	default:
		return false
	}
	return true
}

// handleUnknown processes discovery traffic from senders not yet in the
// peer table (a late joiner or restarted worker whose binding we lack).
// Installed as the transport's unknown-sender handler.
func (d *discovery) handleUnknown(raddr netip.AddrPort, size int, payload any) {
	if m, ok := payload.(*wire.FindPeers); ok {
		d.serve(m, raddr)
	}
}

// serve answers a FindPeers: register the sender's first-hand binding
// (authoritative — it overwrites any stale address for that index, which
// is how restarted workers rebind everywhere), then reply with our
// table. raddr, when valid, is the observed source address used for
// the reply if the announced one fails to register.
func (d *discovery) serve(m *wire.FindPeers, raddr netip.AddrPort) {
	idx := int(m.Index)
	if idx == d.self || idx < 0 || idx >= d.total || m.Addr == "" {
		return
	}
	if err := d.ep.AddPeer(idx, m.Addr); err != nil {
		return
	}
	reply := &wire.Peers{Nonce: m.Nonce}
	flush := func() {
		if len(reply.Entries) == 0 {
			return
		}
		if raddr.IsValid() {
			d.ep.SendToAddr(raddr, reply)
		} else {
			d.ep.Send(idx, reply.WireSize(0), reply)
		}
		reply = &wire.Peers{Nonce: m.Nonce}
	}
	for i, addr := range d.ep.Peers() {
		if addr == "" || i == idx {
			continue
		}
		reply.Entries = append(reply.Entries, wire.PeerEntry{Index: uint32(i), Addr: addr})
		if len(reply.Entries) == wire.MaxPeersPerMessage {
			flush()
		}
	}
	flush()
}

// merge folds a Peers reply into the table. Gossip is second-hand, so it
// only fills slots we know nothing about: a stale gossiped address must
// never clobber a fresh first-hand binding from the peer itself.
func (d *discovery) merge(entries []wire.PeerEntry) {
	known := d.ep.Peers()
	for _, e := range entries {
		idx := int(e.Index)
		if idx == d.self || idx < 0 || idx >= d.total || e.Addr == "" {
			continue
		}
		if idx < len(known) && known[idx] != "" {
			continue
		}
		_ = d.ep.AddPeer(idx, e.Addr)
	}
}
