package dht

import (
	"time"

	"pandas/internal/ids"
)

// RPC wire sizes (bytes, including IP/UDP overhead of 28).
const (
	findNodeReqSize = 28 + 8 + ids.IDSize
	storeRespSize   = 28 + 8 + 1
	rpcEntrySize    = ids.IDSize + 6 // ID + packed address
	rpcHeaderSize   = 28 + 8
	// DefaultRPCTimeout is how long a lookup waits for one peer before
	// writing it off.
	DefaultRPCTimeout = 300 * time.Millisecond
)

// Transport abstracts the message substrate (the simulator in practice).
type Transport interface {
	// Send transmits payload (of the given wire size) to a peer address.
	Send(to int, size int, payload any)
	// After schedules a callback after a virtual-time delay.
	After(d time.Duration, fn func())
	// Now returns the current virtual time.
	Now() time.Duration
}

// Request/response payloads exchanged between peers.
type (
	// FindNodeReq asks for the peer's closest entries to Target.
	FindNodeReq struct {
		ReqID  uint64
		Target ids.NodeID
	}
	// FindNodeResp returns up to K closest entries.
	FindNodeResp struct {
		ReqID   uint64
		Closest []Entry
	}
	// StoreReq stores a value (metadata: key + size) at the peer.
	StoreReq struct {
		ReqID     uint64
		Key       ids.NodeID
		ValueSize int
		Value     any
	}
	// StoreResp acknowledges a store.
	StoreResp struct {
		ReqID uint64
	}
	// GetReq is Kademlia FIND_VALUE: returns the value if the peer has
	// it, otherwise its closest entries to the key.
	GetReq struct {
		ReqID uint64
		Key   ids.NodeID
	}
	// GetResp carries the value or a closest-set.
	GetResp struct {
		ReqID     uint64
		Found     bool
		ValueSize int
		Value     any
		Closest   []Entry
	}
)

type storedValue struct {
	size  int
	value any
}

type pendingReq struct {
	onFindNode func(FindNodeResp, bool)
	onStore    func(bool)
	onGet      func(GetResp, bool)
}

// Peer is one node's DHT endpoint: routing table, local value store, and
// in-flight request bookkeeping. It is single-threaded: all calls must
// come from the simulator's event loop.
type Peer struct {
	self    Entry
	rt      *RoutingTable
	tr      Transport
	store   map[ids.NodeID]storedValue
	pending map[uint64]*pendingReq
	nextReq uint64
}

// NewPeer creates a DHT endpoint for a node.
func NewPeer(self Entry, tr Transport) *Peer {
	return &Peer{
		self:    self,
		rt:      NewRoutingTable(self.ID),
		tr:      tr,
		store:   make(map[ids.NodeID]storedValue),
		pending: make(map[uint64]*pendingReq),
	}
}

// Bootstrap seeds the routing table from known entries.
func (p *Peer) Bootstrap(entries []Entry) {
	for _, e := range entries {
		p.rt.Add(e)
	}
}

// StoredValue returns a locally stored value.
func (p *Peer) StoredValue(key ids.NodeID) (any, bool) {
	v, ok := p.store[key]
	return v.value, ok
}

// HandleMessage processes an incoming DHT payload. Unknown payloads are
// ignored (the caller may multiplex other protocols on the same node).
func (p *Peer) HandleMessage(from int, payload any) {
	switch m := payload.(type) {
	case FindNodeReq:
		closest := p.rt.Closest(m.Target, K)
		resp := FindNodeResp{ReqID: m.ReqID, Closest: closest}
		p.tr.Send(from, rpcHeaderSize+len(closest)*rpcEntrySize, resp)
	case FindNodeResp:
		if req, ok := p.pending[m.ReqID]; ok && req.onFindNode != nil {
			delete(p.pending, m.ReqID)
			req.onFindNode(m, true)
		}
	case StoreReq:
		p.store[m.Key] = storedValue{size: m.ValueSize, value: m.Value}
		p.tr.Send(from, storeRespSize, StoreResp{ReqID: m.ReqID})
	case StoreResp:
		if req, ok := p.pending[m.ReqID]; ok && req.onStore != nil {
			delete(p.pending, m.ReqID)
			req.onStore(true)
		}
	case GetReq:
		if v, ok := p.store[m.Key]; ok {
			p.tr.Send(from, rpcHeaderSize+1+v.size, GetResp{ReqID: m.ReqID, Found: true, ValueSize: v.size, Value: v.value})
		} else {
			closest := p.rt.Closest(m.Key, K)
			p.tr.Send(from, rpcHeaderSize+1+len(closest)*rpcEntrySize, GetResp{ReqID: m.ReqID, Closest: closest})
		}
	case GetResp:
		if req, ok := p.pending[m.ReqID]; ok && req.onGet != nil {
			delete(p.pending, m.ReqID)
			req.onGet(m, true)
		}
	}
}

// findNode issues a FIND_NODE RPC with a timeout.
func (p *Peer) findNode(to Entry, target ids.NodeID, cb func(FindNodeResp, bool)) {
	p.nextReq++
	id := p.nextReq
	p.pending[id] = &pendingReq{onFindNode: cb}
	p.tr.Send(to.Addr, findNodeReqSize, FindNodeReq{ReqID: id, Target: target})
	p.tr.After(DefaultRPCTimeout, func() {
		if req, ok := p.pending[id]; ok && req.onFindNode != nil {
			delete(p.pending, id)
			cb(FindNodeResp{}, false)
		}
	})
}

// storeAt issues a STORE RPC with a timeout.
func (p *Peer) storeAt(to Entry, key ids.NodeID, size int, value any, cb func(bool)) {
	p.nextReq++
	id := p.nextReq
	p.pending[id] = &pendingReq{onStore: cb}
	p.tr.Send(to.Addr, rpcHeaderSize+ids.IDSize+size, StoreReq{ReqID: id, Key: key, ValueSize: size, Value: value})
	p.tr.After(DefaultRPCTimeout, func() {
		if req, ok := p.pending[id]; ok && req.onStore != nil {
			delete(p.pending, id)
			cb(false)
		}
	})
}

// getFrom issues a FIND_VALUE RPC with a timeout.
func (p *Peer) getFrom(to Entry, key ids.NodeID, cb func(GetResp, bool)) {
	p.nextReq++
	id := p.nextReq
	p.pending[id] = &pendingReq{onGet: cb}
	p.tr.Send(to.Addr, rpcHeaderSize+ids.IDSize, GetReq{ReqID: id, Key: key})
	p.tr.After(DefaultRPCTimeout, func() {
		if req, ok := p.pending[id]; ok && req.onGet != nil {
			delete(p.pending, id)
			cb(GetResp{}, false)
		}
	})
}
