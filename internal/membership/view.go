package membership

import "math"

// View reports whether a peer is visible to a node. A nil View stands
// for the full view; implementations may evolve while a slot is running.
type View interface {
	Contains(peer int) bool
}

// PeerView is a node's view of the network: the set of peers it
// believes to be part of it. It is a seeded per-(self, peer) hash draw
// against a keep threshold, so each peer is in it independently with
// probability keep, plus the changes announcements made to that draw:
// added holds the peers outside the draw that joined, removed the drawn
// peers that left. Both sets are allocated on first use, so a view
// nothing has changed costs 40 bytes whatever the network's size, and a
// full view (keep = 1) answers without hashing.
//
// Crashed peers are never removed: they linger until liveness scoring
// demotes them, mirroring stale ENRs in real deployments. Like every
// per-node structure in this codebase it is confined to the simulator's
// event loop and needs no locking.
type PeerView struct {
	seed      uint64
	self      uint64
	threshold uint64
	added     map[int]struct{}
	removed   map[int]struct{}
}

// NewPeerView creates the view for one node. keep is the fraction of
// peers drawn into it (clamped to [0, 1]; 1 is the full view); seed must
// be shared by the whole cluster so the per-pair draws are reproducible.
// A node always draws itself.
func NewPeerView(seed uint64, self int, keep float64) *PeerView {
	// keep*MaxUint64 overflows the uint64 conversion at keep=1 (the
	// float rounds up to 2^64), so the full-view case is pinned exactly.
	threshold := uint64(math.MaxUint64)
	if keep < 1 {
		threshold = uint64(max(keep, 0) * float64(1<<63) * 2)
	}
	return &PeerView{seed: seed, self: uint64(self), threshold: threshold}
}

// drawn reports whether the per-pair draw put peer in the view.
func (v *PeerView) drawn(peer int) bool {
	if v.threshold == math.MaxUint64 || uint64(peer) == v.self {
		return true
	}
	h := mix64(v.seed ^ v.self*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(peer)*0xc2b2ae3d27d4eb4f)
	return h <= v.threshold
}

// Contains implements View.
func (v *PeerView) Contains(peer int) bool {
	if v.drawn(peer) {
		_, gone := v.removed[peer]
		return !gone
	}
	_, in := v.added[peer]
	return in
}

// Add puts a peer into the view: an announced join.
func (v *PeerView) Add(peer int) {
	if v.drawn(peer) {
		delete(v.removed, peer)
		return
	}
	if v.added == nil {
		v.added = make(map[int]struct{})
	}
	v.added[peer] = struct{}{}
}

// Remove takes a peer out of the view: an announced leave.
func (v *PeerView) Remove(peer int) {
	if !v.drawn(peer) {
		delete(v.added, peer)
		return
	}
	if v.removed == nil {
		v.removed = make(map[int]struct{})
	}
	v.removed[peer] = struct{}{}
}

// Reload restores every drawn peer, as a restarting client reloads the
// peer table it persists: the view becomes the draw plus the joiners it
// has learned of. Peers that have left since come back with it, and
// pruning them is the liveness layer's job.
func (v *PeerView) Reload() { v.removed = nil }

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash for the per-pair visibility draw.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
