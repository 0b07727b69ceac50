// Package gossip implements a GossipSub-style topic mesh: the multi-hop,
// controlled-flooding overlay Ethereum uses for block dissemination, and
// the substrate of the paper's GossipSub DAS baseline.
//
// Each topic maintains a mesh: every member picks `degree` random peers
// (8 by default, GossipSub's fanout), and the union of those choices forms
// the undirected mesh graph. A published message floods the mesh: each
// node forwards the first copy it sees to all mesh neighbours except the
// one it came from. Duplicate suppression is per (topic, message).
//
// The package is deliberately transport-agnostic and deterministic: an
// Overlay computes mesh neighbourships from a seeded generator, and a
// Router decides, given a received message, which peers to forward it to.
// The caller (simulator or UDP transport) performs the sends, so all of
// the flooding logic is unit-testable without a network.
package gossip

import (
	"math/rand"
	"sort"
)

// DefaultDegree is GossipSub's default mesh degree (D = 8).
const DefaultDegree = 8

// Overlay is the static mesh of one topic.
type Overlay struct {
	neighbors map[int][]int
	members   []int
}

// NewOverlay builds a mesh over the given member node indices: every
// member picks up to degree random peers, and edges are symmetrized. The
// same rng state always yields the same mesh.
func NewOverlay(rng *rand.Rand, members []int, degree int) *Overlay {
	o := &Overlay{neighbors: make(map[int][]int, len(members)), members: append([]int(nil), members...)}
	if len(members) <= 1 {
		return o
	}
	edge := make(map[[2]int]bool)
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		key := [2]int{min(a, b), max(a, b)}
		if edge[key] {
			return
		}
		edge[key] = true
		o.neighbors[a] = append(o.neighbors[a], b)
		o.neighbors[b] = append(o.neighbors[b], a)
	}
	for _, m := range members {
		d := min(degree, len(members)-1)
		perm := rng.Perm(len(members))
		added := 0
		for _, pi := range perm {
			if added >= d {
				break
			}
			peer := members[pi]
			if peer == m {
				continue
			}
			addEdge(m, peer)
			added++
		}
	}
	for _, m := range members {
		sort.Ints(o.neighbors[m])
	}
	return o
}

// Members returns the topic members.
func (o *Overlay) Members() []int { return o.members }

// Neighbors returns the mesh neighbours of a node (nil for non-members).
func (o *Overlay) Neighbors(node int) []int { return o.neighbors[node] }

// Connected reports whether the mesh graph is connected over its members;
// a disconnected mesh cannot deliver to everyone.
func (o *Overlay) Connected() bool {
	if len(o.members) == 0 {
		return true
	}
	seen := map[int]bool{o.members[0]: true}
	stack := []int{o.members[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range o.neighbors[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return len(seen) == len(o.members)
}

// MsgID identifies a published message for duplicate suppression.
type MsgID uint64

// Router tracks seen messages for one node across topics and computes
// forwarding decisions. It is the per-node gossip state machine.
type Router struct {
	self int
	seen map[MsgID]bool
}

// NewRouter creates the per-node router.
func NewRouter(self int) *Router {
	return &Router{self: self, seen: make(map[MsgID]bool)}
}

// Publish returns the peers the node sends a NEW message to (all its mesh
// neighbours), marking the message as seen locally.
func (r *Router) Publish(o *Overlay, id MsgID) []int {
	r.seen[id] = true
	out := o.Neighbors(r.self)
	return out
}

// Receive processes an incoming copy of a message from peer `from` and
// returns the peers to forward it to (all mesh neighbours except from),
// or nil if it is a duplicate. The bool reports whether the message was
// new to this node.
func (r *Router) Receive(o *Overlay, id MsgID, from int) ([]int, bool) {
	if r.seen[id] {
		return nil, false
	}
	r.seen[id] = true
	nbs := o.Neighbors(r.self)
	out := make([]int, 0, len(nbs))
	for _, nb := range nbs {
		if nb != from {
			out = append(out, nb)
		}
	}
	return out, true
}

// Seen reports whether the message has been observed by this node.
func (r *Router) Seen(id MsgID) bool { return r.seen[id] }

// Reset clears seen-message state (between slots).
func (r *Router) Reset() { r.seen = make(map[MsgID]bool) }
