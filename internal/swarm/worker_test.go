package swarm

import (
	"encoding/hex"
	"io"
	"net"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"pandas/internal/transport"
	"pandas/internal/wire"
)

// TestWorkerIgnoresStrangers: a worker's peer table is the supervisor's,
// so a datagram from a socket no worker registered is dropped unread,
// whatever it says. The one sent here is the retired discovery crawl's
// FindPeers announcing index 5 at 127.0.0.1:40001, as recorded in wire's
// testdata. The crawl answered it with a Peers datagram and rebound index 5
// to that address, so one unauthenticated datagram redirected the worker's
// traffic for a peer.
func TestWorkerIgnoresStrangers(t *testing.T) {
	text, err := os.ReadFile("../wire/testdata/encodings/findpeers.hex")
	if err != nil {
		t.Fatal(err)
	}
	findPeers, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatal(err)
	}
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	const nodes = 5 // index 5, the one the datagram claims, is the builder
	ep, err := transport.NewUDP(0, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	peers := make([]*net.UDPConn, nodes+1)
	addrs := []string{ep.Addr()}
	for i := 1; i <= nodes; i++ {
		peers[i] = listen()
		addrs = append(addrs, peers[i].LocalAddr().String())
	}
	sup, conn := loopbackConns(t)
	w := &worker{o: WorkerOptions{Index: 0}, log: io.Discard, ctrl: conn, ep: ep}
	if err := w.init(&config{Nodes: nodes, Seed: 1, Geometry: testGeometry(), Peers: addrs}); err != nil {
		t.Fatal(err)
	}
	if f := expectFrame(t, sup); f.Hello == nil || !f.Hello.Ready {
		t.Fatalf("a worker given the full table sent %+v, want a ready hello", f)
	}

	stranger := listen()
	if _, err := stranger.WriteToUDPAddrPort(findPeers, netip.MustParseAddrPort(ep.Addr())); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	_ = stranger.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if n, _, err := stranger.ReadFromUDPAddrPort(buf); err == nil {
		t.Fatalf("the stranger got a %d-byte reply", n)
	}

	q := &wire.Query{Slot: 1}
	ep.Run(func() { ep.Send(5, q.WireSize(0), q) })
	_ = peers[5].SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := peers[5].ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatalf("index 5's registered socket got nothing: %v", err)
	}
	if m, err := wire.Decode(buf[:n], 0); err != nil || m.Type() != wire.TypeQuery {
		t.Fatalf("index 5's registered socket got %v, %v; want the query", m, err)
	}
}
