package transport

import (
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/wire"
)

func TestUDPEndpointRoundTrip(t *testing.T) {
	a, err := NewUDP(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDP(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs := []string{a.Addr(), b.Addr()}
	if err := a.SetPeers(addrs); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeers(addrs); err != nil {
		t.Fatal(err)
	}

	got := make(chan wire.Query, 1)
	b.Start(func(from, size int, payload any) {
		if from != 0 {
			t.Errorf("from = %d", from)
		}
		if q, ok := payload.(*wire.Query); ok {
			// The message is lent until the handler returns: copy it.
			got <- wire.Query{Slot: q.Slot, Cells: append([]blob.CellID(nil), q.Cells...)}
		}
	})
	a.Start(func(from, size int, payload any) {})

	q := &wire.Query{Slot: 9, Cells: []blob.CellID{{Row: 1, Col: 2}}}
	a.Send(1, q.WireSize(64), q)
	select {
	case m := <-got:
		if m.Slot != 9 || len(m.Cells) != 1 || m.Cells[0] != q.Cells[0] {
			t.Fatalf("decoded %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestUDPAfterRunsOnEventLoop(t *testing.T) {
	a, err := NewUDP(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Start(func(from, size int, payload any) {})
	fired := make(chan time.Duration, 1)
	start := time.Now()
	a.After(50*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case d := <-fired:
		if d < 40*time.Millisecond {
			t.Fatalf("fired too early: %v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestUDPIgnoresUnknownSendersAndGarbage(t *testing.T) {
	a, err := NewUDP(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SetPeers([]string{a.Addr()}); err != nil {
		t.Fatal(err)
	}
	received := make(chan struct{}, 2)
	a.Start(func(from, size int, payload any) { received <- struct{}{} })
	// Garbage datagram from a known sender: must be dropped by the codec.
	if _, err := a.conn.WriteToUDPAddrPort([]byte{0xFF, 1, 2}, a.conn.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatal(err)
	}
	// A well-formed query from a socket not in the table: dropped unread.
	stranger, err := NewUDP(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if err := stranger.SetPeers([]string{a.Addr(), stranger.Addr()}); err != nil {
		t.Fatal(err)
	}
	q := &wire.Query{Slot: 1}
	stranger.Send(0, q.WireSize(64), q)
	select {
	case <-received:
		t.Fatal("garbage or a stranger's datagram delivered")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	a, err := NewUDP(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	a.Start(func(from, size int, payload any) {})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != ErrClosed {
		t.Fatalf("second close err = %v", err)
	}
}

// TestSetPeersRebindConsistency is the regression test for the
// stale-entry hazard: after the peer table shrinks or an index is
// rebound to a new address, datagrams from the OLD address must no
// longer resolve (and certainly not to the wrong index), while the new
// binding must resolve immediately — even with the receive loop live.
func TestSetPeersRebindConsistency(t *testing.T) {
	a, err := NewUDP(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Two sender sockets: old and new homes for peer index 1.
	oldHome, err := NewUDP(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer oldHome.Close()
	newHome, err := NewUDP(1, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer newHome.Close()

	from := make(chan int, 4)
	a.Start(func(f, size int, payload any) { from <- f })

	send := func(src *UDP) {
		q := &wire.Query{Slot: 1}
		src.Send(0, q.WireSize(64), q)
	}
	wire3 := []string{a.Addr(), oldHome.Addr(), newHome.Addr()}
	for _, src := range []*UDP{oldHome, newHome} {
		if err := src.SetPeers(wire3); err != nil {
			t.Fatal(err)
		}
	}

	// Initially index 1 lives at oldHome; index 2 at newHome.
	if err := a.SetPeers(wire3); err != nil {
		t.Fatal(err)
	}
	send(oldHome)
	if got := <-from; got != 1 {
		t.Fatalf("before rebind: from = %d, want 1", got)
	}

	// Rebind: table SHRINKS to two entries and index 1 moves to
	// newHome's address. The old address must go stale atomically.
	if err := a.SetPeers([]string{a.Addr(), newHome.Addr()}); err != nil {
		t.Fatal(err)
	}
	send(newHome)
	if got := <-from; got != 1 {
		t.Fatalf("after rebind: from = %d, want 1", got)
	}
	send(oldHome) // stale sender: must be dropped
	select {
	case got := <-from:
		t.Fatalf("stale address delivered as index %d", got)
	case <-time.After(150 * time.Millisecond):
	}
}

// TestCloseReleasesPendingTimers: After timers still pending at Close are
// stopped, so nothing they reference outlives the endpoint and no
// callback runs afterwards. Before, a closed endpoint's timers stayed
// armed — holding closure, node and store — until they fired into a dead
// event loop.
func TestCloseReleasesPendingTimers(t *testing.T) {
	a, err := NewUDP(0, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	a.Start(func(from, size int, payload any) {})
	var ran atomic.Int32
	type state struct{ cells [1 << 16]byte } // stands in for a node and its store
	collected := make(chan struct{})
	func() {
		held := new(state)
		runtime.SetFinalizer(held, func(*state) { close(collected) })
		a.After(time.Hour, func() { ran.Add(int32(held.cells[0]) + 1) })
	}()
	for _, d := range []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, time.Minute} {
		a.After(d, func() { ran.Add(1) })
	}
	fired := make(chan struct{})
	a.After(0, func() { close(fired) })
	<-fired // a timer that fires before Close runs, and leaves the set
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(a.timers); n != 0 {
		t.Fatalf("%d timers still armed after Close", n)
	}
	a.After(time.Millisecond, func() { ran.Add(1) }) // arms nothing
	if n := len(a.timers); n != 0 {
		t.Fatalf("After on a closed endpoint armed %d timers", n)
	}
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("a pending timer's closure is still reachable after Close")
		case <-time.After(10 * time.Millisecond):
		}
	}
	time.Sleep(60 * time.Millisecond) // past the short timers' due times
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d After callbacks ran after Close", n)
	}
}

// TestSendAllocatesNothing is the send half of the allocation gate: Send
// encodes into a recycled buffer (it used to allocate one per message,
// 50 KB for a full response).
func TestSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	a, _ := loopbackPair(t, benchCellBytes) // the peer never reads: loopback drops what overflows
	q, r := benchMessages()
	for _, msg := range []wire.Message{q, r} {
		size := msg.WireSize(benchCellBytes)
		a.Send(1, size, msg) // warm the pool
		if n := testing.AllocsPerRun(50, func() { a.Send(1, size, msg) }); n != 0 {
			t.Errorf("Send(%T) makes %.0f allocations", msg, n)
		}
	}
}

// TestPeerKeyUnmapped: a peer is one key whether the socket reports its
// address as IPv4 or as IPv4-mapped IPv6 (a dual-stack socket does).
func TestPeerKeyUnmapped(t *testing.T) {
	mapped, err := resolve("[::ffff:127.0.0.1]:4000")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := resolve("127.0.0.1:4000")
	if err != nil {
		t.Fatal(err)
	}
	if mapped != plain || unmap(netip.MustParseAddrPort("[::ffff:127.0.0.1]:4000")) != plain {
		t.Fatalf("mapped %v and plain %v are different keys", mapped, plain)
	}
}

// TestEmptyDatagramIgnored: a zero-length datagram is dropped like any
// other malformed one, and the endpoint keeps receiving.
func TestEmptyDatagramIgnored(t *testing.T) {
	a, b := loopbackPair(t, 64)
	got := make(chan struct{}, 2)
	b.Start(func(from, size int, payload any) { got <- struct{}{} })
	if _, err := a.conn.WriteToUDPAddrPort(nil, b.conn.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatal(err)
	}
	q := &wire.Query{Slot: 1}
	a.Send(1, q.WireSize(64), q)
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("endpoint stopped receiving after an empty datagram")
	}
	select {
	case <-got:
		t.Fatal("empty datagram delivered")
	case <-time.After(50 * time.Millisecond):
	}
}
