// Package dht implements a Kademlia distributed hash table: XOR-metric
// routing tables with k-buckets, iterative node lookup, and STORE /
// FIND_VALUE operations.
//
// In the paper the Kademlia DHT plays two roles: Ethereum nodes advertise
// their ENRs in it (views are built by crawling), and it is the substrate
// of the DHT DAS baseline (Section 8.1), where the builder PUTs 64-cell
// parcels at the 8 closest peers to each parcel key and sampling nodes
// GET them with multi-hop iterative routing. The baseline's weakness —
// multi-hop latency and message overhead — emerges naturally from this
// implementation.
package dht

import (
	"sort"

	"pandas/internal/ids"
)

// Kademlia parameters (libp2p defaults scaled to the paper's setting).
const (
	// K is the bucket size and the closest-set size returned by lookups.
	K = 16
	// Alpha is the lookup concurrency factor.
	Alpha = 3
	// Replication is the number of closest peers a value is stored at
	// (the paper stores 8 copies to match PANDAS's redundant seeding).
	Replication = 8
)

// Entry pairs a node's Kademlia ID with its transport address.
type Entry struct {
	ID   ids.NodeID
	Addr int
}

// RoutingTable is a Kademlia routing table: 256 k-buckets indexed by the
// length of the common prefix with the local ID.
type RoutingTable struct {
	self    ids.NodeID
	buckets [ids.IDSize * 8][]Entry
	size    int
}

// NewRoutingTable creates an empty table for the local node.
func NewRoutingTable(self ids.NodeID) *RoutingTable {
	return &RoutingTable{self: self}
}

// bucketIndex returns the bucket for an ID: the number of leading zero
// bits of the XOR distance (identical IDs map to the last bucket).
func (rt *RoutingTable) bucketIndex(id ids.NodeID) int {
	d := rt.self.XOR(id)
	lz := d.LeadingZeros()
	if lz >= len(rt.buckets) {
		return len(rt.buckets) - 1
	}
	return lz
}

// Add inserts a peer, respecting the k-bucket capacity (new entries are
// dropped when the bucket is full, Kademlia's stability bias). The local
// ID is never added. Reports whether the entry was inserted.
func (rt *RoutingTable) Add(e Entry) bool {
	if e.ID == rt.self {
		return false
	}
	b := rt.bucketIndex(e.ID)
	for _, x := range rt.buckets[b] {
		if x.ID == e.ID {
			return false
		}
	}
	if len(rt.buckets[b]) >= K {
		return false
	}
	rt.buckets[b] = append(rt.buckets[b], e)
	rt.size++
	return true
}

// Closest returns up to count entries closest to target in XOR distance.
func (rt *RoutingTable) Closest(target ids.NodeID, count int) []Entry {
	all := make([]Entry, 0, rt.size)
	for _, b := range rt.buckets {
		all = append(all, b...)
	}
	SortByDistance(all, target)
	if len(all) > count {
		all = all[:count]
	}
	return all
}

// SortByDistance orders entries by ascending XOR distance to target.
func SortByDistance(entries []Entry, target ids.NodeID) {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].ID.XOR(target).Less(entries[j].ID.XOR(target))
	})
}
