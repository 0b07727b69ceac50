package dht

import (
	"crypto/sha256"
	"testing"
	"time"

	"pandas/internal/ids"
	"pandas/internal/simnet"
)

func TestRoutingTableAddAndClosest(t *testing.T) {
	self := ids.NewTestIdentity(0).ID
	rt := NewRoutingTable(self)
	if rt.Add(Entry{ID: self, Addr: 0}) {
		t.Fatal("added self")
	}
	var entries []Entry
	for i := 1; i <= 50; i++ {
		e := Entry{ID: ids.NewTestIdentity(int64(i)).ID, Addr: i}
		entries = append(entries, e)
		rt.Add(e)
	}
	if rt.size == 0 {
		t.Fatal("table empty after adds")
	}
	if rt.Add(entries[0]) {
		t.Fatal("duplicate add accepted")
	}
	target := ids.NewTestIdentity(99).ID
	closest := rt.Closest(target, 5)
	if len(closest) != 5 {
		t.Fatalf("Closest returned %d", len(closest))
	}
	for i := 1; i < len(closest); i++ {
		if closest[i].ID.XOR(target).Less(closest[i-1].ID.XOR(target)) {
			t.Fatal("Closest not sorted by distance")
		}
	}
}

func TestBucketCapacity(t *testing.T) {
	// Flood one distance range; the bucket must cap at K.
	var self ids.NodeID
	rt := NewRoutingTable(self)
	added := 0
	for i := 0; i < 100; i++ {
		// IDs starting with 0x80 all share bucket 0 relative to zero self.
		var id ids.NodeID
		id[0] = 0x80
		id[31] = byte(i)
		id[30] = byte(i >> 4)
		if rt.Add(Entry{ID: id, Addr: i}) {
			added++
		}
	}
	if added != K {
		t.Fatalf("bucket accepted %d entries, want %d", added, K)
	}
}

// cluster wires n DHT peers over the simulator; sent counts each
// peer's sends, requests and responses alike.
type cluster struct {
	net   *simnet.Network
	peers []*Peer
	sent  []int
}

// countingTransport is a simulator endpoint that counts its sends.
type countingTransport struct {
	simnet.Endpoint
	sent *int
}

func (t countingTransport) Send(to, size int, payload any) {
	*t.sent++
	t.Endpoint.Send(to, size, payload)
}

func newCluster(t *testing.T, n int, loss float64) *cluster {
	t.Helper()
	net, err := simnet.New(simnet.Config{
		Latency:  simnet.ConstantLatency(10 * time.Millisecond),
		LossRate: loss,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{net: net, sent: make([]int, n)}
	entries := make([]Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = Entry{ID: ids.NewTestIdentity(int64(i)).ID, Addr: i}
	}
	for i := 0; i < n; i++ {
		i := i
		idx := net.AddNode(func(from, size int, payload any) {
			c.peers[i].HandleMessage(from, payload)
		}, 0, 0)
		if idx != i {
			t.Fatalf("node index mismatch")
		}
		p := NewPeer(entries[i], countingTransport{net.Endpoint(i), &c.sent[i]})
		p.Bootstrap(entries)
		c.peers = append(c.peers, p)
	}
	return c
}

func TestLookupFindsClosestNodes(t *testing.T) {
	c := newCluster(t, 60, 0)
	target := ids.NewTestIdentity(1234).ID
	var got []Entry
	c.peers[0].Lookup(target, func(closest []Entry) { got = closest })
	c.net.Run(30 * time.Second)
	if got == nil {
		t.Fatal("lookup never finished")
	}
	if len(got) == 0 {
		t.Fatal("lookup returned nothing")
	}
	// The first result must be the globally closest node.
	bestDist := got[0].ID.XOR(target)
	for i := 0; i < 60; i++ {
		d := ids.NewTestIdentity(int64(i)).ID.XOR(target)
		if d.Less(bestDist) {
			t.Fatalf("lookup missed closer node %d", i)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := newCluster(t, 60, 0)
	key := ids.NodeID(sha256.Sum256([]byte("parcel-0")))
	stored := -1
	c.peers[0].Put(key, 1000, "parcel-data", func(n int) { stored = n })
	c.net.Run(30 * time.Second)
	if stored < Replication/2 {
		t.Fatalf("stored at %d peers, want >= %d", stored, Replication/2)
	}
	// A different node retrieves it.
	var got GetResp
	found := false
	missed := false
	c.peers[42].Get(key, func(r GetResp) { got = r; found = true }, func() { missed = true })
	c.net.Run(60 * time.Second)
	if missed || !found {
		t.Fatalf("Get failed: found=%v missed=%v", found, missed)
	}
	if got.Value.(string) != "parcel-data" || got.ValueSize != 1000 {
		t.Fatalf("got %+v", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	c := newCluster(t, 30, 0)
	missed := false
	c.peers[3].Get(ids.NodeID(sha256.Sum256([]byte("nope"))), func(GetResp) {
		t.Error("found a value that was never stored")
	}, func() { missed = true })
	c.net.Run(60 * time.Second)
	if !missed {
		t.Fatal("onMiss never invoked")
	}
}

func TestLookupSurvivesLoss(t *testing.T) {
	c := newCluster(t, 60, 0.1)
	target := ids.NewTestIdentity(777).ID
	finished := false
	c.peers[5].Lookup(target, func([]Entry) { finished = true })
	c.net.Run(60 * time.Second)
	if !finished {
		t.Fatal("lookup stalled under 10% loss")
	}
	if c.sent[5] == 0 {
		t.Fatal("no RPCs sent")
	}
}

func TestPutGetUnderLoss(t *testing.T) {
	c := newCluster(t, 80, 0.05)
	key := ids.NodeID(sha256.Sum256([]byte("lossy-parcel")))
	done := false
	c.peers[0].Put(key, 500, "v", func(int) { done = true })
	c.net.Run(60 * time.Second)
	if !done {
		t.Fatal("put never completed")
	}
	found, missed := false, false
	c.peers[50].Get(key, func(GetResp) { found = true }, func() { missed = true })
	c.net.Run(120 * time.Second)
	if !found && !missed {
		t.Fatal("get never concluded")
	}
	// With 8-way replication and 5% loss the value should be found.
	if !found {
		t.Fatal("value lost despite replication")
	}
}

func TestHandleMessageIgnoresUnknownPayload(t *testing.T) {
	c := newCluster(t, 5, 0)
	c.peers[0].HandleMessage(1, "not-a-dht-message")
	if c.sent[0] != 0 {
		t.Fatalf("unknown payload answered with %d sends", c.sent[0])
	}
}

func TestStoredValue(t *testing.T) {
	c := newCluster(t, 5, 0)
	key := ids.NodeID{1}
	if _, ok := c.peers[0].StoredValue(key); ok {
		t.Fatal("value present before store")
	}
	c.peers[0].HandleMessage(1, StoreReq{ReqID: 1, Key: key, ValueSize: 10, Value: "x"})
	v, ok := c.peers[0].StoredValue(key)
	if !ok || v.(string) != "x" {
		t.Fatal("stored value not retrievable")
	}
}

func TestLookupMultiHop(t *testing.T) {
	// With 300 nodes and K=16 initial entries... every peer bootstraps
	// with the full list here, so instead verify that lookups complete
	// with bounded RPC counts (not contacting the whole network).
	c := newCluster(t, 300, 0)
	target := ids.NewTestIdentity(9999).ID
	done := false
	c.peers[7].Lookup(target, func([]Entry) { done = true })
	c.net.Run(60 * time.Second)
	if !done {
		t.Fatal("lookup did not finish")
	}
	sent := c.sent[7]
	if sent == 0 || sent > 100 {
		t.Fatalf("lookup used %d RPCs, want 1..100", sent)
	}
}

func BenchmarkRoutingTableAdd(b *testing.B) {
	rt := NewRoutingTable(ids.NewTestIdentity(0).ID)
	entries := make([]Entry, 1000)
	for i := range entries {
		entries[i] = Entry{ID: ids.NewTestIdentity(int64(i + 1)).ID, Addr: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Add(entries[i%1000])
	}
}

func BenchmarkClosest(b *testing.B) {
	rt := NewRoutingTable(ids.NewTestIdentity(0).ID)
	for i := 1; i <= 1000; i++ {
		rt.Add(Entry{ID: ids.NewTestIdentity(int64(i)).ID, Addr: i})
	}
	target := ids.NewTestIdentity(5000).ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Closest(target, K)
	}
}
