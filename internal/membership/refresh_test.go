package membership

import (
	"testing"
	"time"

	"pandas/internal/dht"
	"pandas/internal/ids"
	"pandas/internal/obsv"
	"pandas/internal/simnet"
)

// dhtNet wires n DHT peers over the simulator with sparse bootstrap
// tables (~8 contacts each) — the view-refresh substrate.
func dhtNet(t *testing.T, n int) (*simnet.Network, []*dht.Peer) {
	t.Helper()
	net, err := simnet.New(simnet.Config{
		Latency: simnet.ConstantLatency(10 * time.Millisecond),
		Seed:    17,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]dht.Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = dht.Entry{ID: ids.NewTestIdentity(int64(i)).ID, Addr: i}
	}
	peers := make([]*dht.Peer, n)
	for i := 0; i < n; i++ {
		i := i
		net.AddNode(func(from, size int, payload any) {
			if peers[i].HandleMessage(from, payload) && from >= 0 && from < n {
				// Any exchange teaches the recipient the sender's
				// record, as real Kademlia contact handling does.
				peers[i].Table().Add(entries[from])
			}
		}, 0, 0)
		peers[i] = dht.NewPeer(entries[i], net.Endpoint(i), 0)
		for j := 1; j <= 8; j++ {
			peers[i].Bootstrap([]dht.Entry{entries[(i+j*13)%n]})
		}
	}
	return net, peers
}

// TestRefreshConvergesOn100NodeTable is the crawl-convergence check the
// churn subsystem rests on: starting from an ~8-entry bootstrap view,
// periodic crawl refresh must discover the large majority of a 100-node
// network within a few cycles.
func TestRefreshConvergesOn100NodeTable(t *testing.T) {
	const n = 100
	net, peers := dhtNet(t, n)
	view := NewLiveView()
	view.Add(0)
	r := NewRefresher(peers[0], view, net, 5*time.Second, 99, nil)
	r.Start(0)
	net.Run(30 * time.Second)
	if r.Crawls() < 3 {
		t.Fatalf("only %d crawls ran", r.Crawls())
	}
	frac := float64(view.Len()) / n
	if frac < 0.9 {
		t.Fatalf("view converged to only %.0f%% of the network", frac*100)
	}
	// Every discovered peer must be a real network member.
	for _, p := range view.Peers() {
		if p < 0 || p >= n {
			t.Fatalf("view contains fabricated peer %d", p)
		}
	}
}

func TestRefreshNowMergesAndNotifies(t *testing.T) {
	net, peers := dhtNet(t, 40)
	view := NewLiveView()
	r := NewRefresher(peers[3], view, net, -1, 5, nil)
	var traced []obsv.Event
	r.SetRecorder(obsv.RecorderFunc(func(e obsv.Event) { traced = append(traced, e) }), 3)
	r.Start(0) // negative interval: periodic loop disabled
	net.Run(5 * time.Second)
	if r.Crawls() != 0 {
		t.Fatal("disabled refresher crawled on its own")
	}
	r.RefreshNow()
	net.Run(30 * time.Second)
	if view.Len() == 0 {
		t.Fatal("RefreshNow discovered nothing")
	}
	if len(traced) != 1 || traced[0].Kind != obsv.KindViewRefresh || traced[0].Node != 3 ||
		traced[0].Count == 0 || traced[0].Aux != 1 {
		t.Fatalf("the crawl traced %+v, want one view-refresh event of node 3's first crawl", traced)
	}
}

func TestRefreshSkipsWhileInactive(t *testing.T) {
	net, peers := dhtNet(t, 20)
	view := NewLiveView()
	active := false
	r := NewRefresher(peers[0], view, net, time.Second, 1, func() bool { return active })
	r.Start(0)
	net.Run(5 * time.Second)
	if r.Crawls() != 0 {
		t.Fatal("inactive refresher crawled")
	}
	active = true
	net.Run(20 * time.Second)
	if r.Crawls() == 0 {
		t.Fatal("refresher never resumed after reactivation")
	}
}
