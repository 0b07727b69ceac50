package simnet

import (
	"testing"
	"time"
)

func TestEngineRunsInTimestampOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	if n := e.Run(time.Second); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != time.Second {
		t.Fatalf("Now = %v, want advance to until", e.Now())
	}
}

func TestEngineFIFOForEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestEngineStopsAtUntil(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(2*time.Second, func() { ran = true })
	e.Run(time.Second)
	if ran {
		t.Fatal("event past until executed")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run(3 * time.Second)
	if !ran {
		t.Fatal("event not executed on second Run")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []time.Duration
	e.At(10*time.Millisecond, func() {
		hits = append(hits, e.Now())
		e.After(5*time.Millisecond, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run(time.Second)
	if len(hits) != 2 || hits[0] != 10*time.Millisecond || hits[1] != 15*time.Millisecond {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEnginePastEventsRunNow(t *testing.T) {
	e := NewEngine(1)
	e.At(50*time.Millisecond, func() {
		e.At(10*time.Millisecond, func() { // in the past
			if e.Now() != 50*time.Millisecond {
				t.Errorf("past event ran at %v", e.Now())
			}
		})
	})
	e.Run(time.Second)
}

func newTestNet(t *testing.T, lat LatencyModel, loss float64) *Network {
	t.Helper()
	n, err := New(Config{Latency: lat, LossRate: loss, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkDeliversWithLatency(t *testing.T) {
	n := newTestNet(t, ConstantLatency(30*time.Millisecond), 0)
	var gotAt time.Duration
	var gotFrom, gotSize int
	a := n.AddNode(nil, 0, 0) // infinite bandwidth
	b := n.AddNode(func(from, size int, payload any) {
		gotAt = n.Now()
		gotFrom = from
		gotSize = size
		if payload.(string) != "hello" {
			t.Errorf("payload = %v", payload)
		}
	}, 0, 0)
	n.Send(a, b, 100, "hello")
	n.Run(time.Second)
	if gotAt != 30*time.Millisecond {
		t.Fatalf("delivered at %v, want 30ms", gotAt)
	}
	if gotFrom != a || gotSize != 100 {
		t.Fatalf("from=%d size=%d", gotFrom, gotSize)
	}
	_ = b
}

func TestNetworkBandwidthSerialization(t *testing.T) {
	// 1 Mbps uplink, two 12,500-byte messages = 100 ms transmission each.
	// The second message must queue behind the first.
	n := newTestNet(t, ConstantLatency(0), 0)
	var arrivals []time.Duration
	a := n.AddNode(nil, 1_000_000, 0)
	b := n.AddNode(func(from, size int, payload any) {
		arrivals = append(arrivals, n.Now())
	}, 0, 0)
	n.Send(a, b, 12500, nil)
	n.Send(a, b, 12500, nil)
	n.Run(time.Second)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	if arrivals[0] != 100*time.Millisecond || arrivals[1] != 200*time.Millisecond {
		t.Fatalf("arrivals = %v, want [100ms 200ms]", arrivals)
	}
}

func TestNetworkDownlinkSerialization(t *testing.T) {
	// Two senders with infinite uplink hit one 1 Mbps downlink.
	n := newTestNet(t, ConstantLatency(0), 0)
	var arrivals []time.Duration
	a := n.AddNode(nil, 0, 0)
	b := n.AddNode(nil, 0, 0)
	c := n.AddNode(func(from, size int, payload any) {
		arrivals = append(arrivals, n.Now())
	}, 0, 1_000_000)
	n.Send(a, c, 12500, nil)
	n.Send(b, c, 12500, nil)
	n.Run(time.Second)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	if arrivals[0] != 100*time.Millisecond || arrivals[1] != 200*time.Millisecond {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestNetworkLossRate(t *testing.T) {
	n := newTestNet(t, ConstantLatency(time.Millisecond), 0.3)
	received := 0
	a := n.AddNode(nil, 0, 0)
	b := n.AddNode(func(from, size int, payload any) { received++ }, 0, 0)
	const total = 5000
	for i := 0; i < total; i++ {
		n.Send(a, b, 10, nil)
	}
	n.Run(time.Minute)
	lossRate := 1 - float64(received)/total
	if lossRate < 0.25 || lossRate > 0.35 {
		t.Fatalf("observed loss %v, want ~0.3", lossRate)
	}
	if n.Dropped() != total-received {
		t.Fatalf("Dropped = %d, want %d", n.Dropped(), total-received)
	}
	if got := n.Stats(a).MsgsLost; got != total-received {
		t.Fatalf("sender MsgsLost = %d", got)
	}
}

func TestNetworkStats(t *testing.T) {
	n := newTestNet(t, ConstantLatency(time.Millisecond), 0)
	a := n.AddNode(nil, 0, 0)
	b := n.AddNode(func(from, size int, payload any) {}, 0, 0)
	n.Send(a, b, 100, nil)
	n.Send(a, b, 200, nil)
	n.Run(time.Second)
	sa, sb := n.Stats(a), n.Stats(b)
	if sa.MsgsSent != 2 || sa.BytesSent != 300 {
		t.Fatalf("sender stats = %+v", sa)
	}
	if sb.MsgsRecv != 2 || sb.BytesRecv != 300 {
		t.Fatalf("receiver stats = %+v", sb)
	}
	if sb.TotalBytes() != 300 || sb.TotalMsgs() != 2 {
		t.Fatal("totals wrong")
	}
	n.ResetStats()
	if n.Stats(a).MsgsSent != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// TestPeakInFlight: the peak is the most messages between send and
// delivery at one time, and a later, smaller burst does not lower it.
func TestPeakInFlight(t *testing.T) {
	n := newTestNet(t, ConstantLatency(time.Millisecond), 0)
	a := n.AddNode(nil, 0, 0)
	b := n.AddNode(func(from, size int, payload any) {}, 0, 0)
	for i := 0; i < 3; i++ {
		n.Send(a, b, 100, nil)
	}
	n.Run(time.Second)
	n.Send(a, b, 100, nil)
	n.Run(2 * time.Second)
	if got := n.PeakInFlight(); got != 3 {
		t.Fatalf("PeakInFlight() = %d, want 3", got)
	}
}

func TestNetworkDeadNode(t *testing.T) {
	n := newTestNet(t, ConstantLatency(time.Millisecond), 0)
	delivered := false
	a := n.AddNode(nil, 0, 0)
	b := n.AddNode(func(from, size int, payload any) { delivered = true }, 0, 0)
	if err := n.SetDead(b, true); err != nil {
		t.Fatal(err)
	}
	if !n.IsDead(b) {
		t.Fatal("IsDead = false")
	}
	n.Send(a, b, 10, nil)
	n.Run(time.Second)
	if delivered {
		t.Fatal("dead node's handler invoked")
	}
	// Dead nodes also cannot send.
	n.Send(b, a, 10, nil)
	n.Run(2 * time.Second)
	if n.Stats(b).MsgsSent != 0 {
		t.Fatal("dead node sent a message")
	}
	if err := n.SetDead(99, true); err == nil {
		t.Fatal("SetDead on unknown node should error")
	}
}

func TestNetworkInvalidSendIgnored(t *testing.T) {
	n := newTestNet(t, ConstantLatency(0), 0)
	a := n.AddNode(nil, 0, 0)
	n.Send(a, 99, 10, nil) // unknown destination: no panic
	n.Send(-1, a, 10, nil)
	n.Run(time.Second)
}

func TestNetworkConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil latency accepted")
	}
	if _, err := New(Config{Latency: ConstantLatency(0), LossRate: 1.5}); err == nil {
		t.Fatal("loss rate 1.5 accepted")
	}
}

func TestNetworkMinDelay(t *testing.T) {
	n, err := New(Config{Latency: ConstantLatency(0), Seed: 1, MinDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	a := n.AddNode(nil, 0, 0)
	b := n.AddNode(func(from, size int, payload any) { at = n.Now() }, 0, 0)
	n.Send(a, b, 10, nil)
	n.Run(time.Second)
	if at != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want MinDelay", at)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() []time.Duration {
		n, err := New(Config{Latency: ConstantLatency(2 * time.Millisecond), LossRate: 0.1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var arrivals []time.Duration
		a := n.AddNode(nil, 1_000_000, 0)
		b := n.AddNode(func(from, size int, payload any) { arrivals = append(arrivals, n.Now()) }, 0, 1_000_000)
		for i := 0; i < 100; i++ {
			n.Send(a, b, 100+i, nil)
		}
		n.Run(time.Minute)
		return arrivals
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
}

// TestNetworkNodeAddedMidDelivery: nodes registered while a message is
// in the receiver's downlink grow (and so move) the node table; the
// delivery must still be counted on the receiver, not on a stale copy.
func TestNetworkNodeAddedMidDelivery(t *testing.T) {
	n := newTestNet(t, ConstantLatency(10*time.Millisecond), 0)
	a := n.AddNode(nil, 0, 0)
	delivered := time.Duration(-1)
	// 100 bytes at 8 kbps: in the downlink from 10 ms to 110 ms.
	b := n.AddNode(func(from, size int, payload any) { delivered = n.Now() }, 0, 8_000)
	n.Send(a, b, 100, nil)
	n.After(50*time.Millisecond, func() {
		for i := 0; i < 64; i++ {
			n.AddNode(nil, 0, 0)
		}
	})
	n.Run(time.Second)
	if delivered != 110*time.Millisecond {
		t.Fatalf("delivered at %v, want 110ms", delivered)
	}
	if st := n.Stats(b); st.MsgsRecv != 1 || st.BytesRecv != 100 {
		t.Fatalf("receiver counted %d msgs, %d bytes; want 1, 100", st.MsgsRecv, st.BytesRecv)
	}
}

func TestSetHandler(t *testing.T) {
	n := newTestNet(t, ConstantLatency(0), 0)
	a := n.AddNode(nil, 0, 0)
	hit := false
	if err := n.SetHandler(a, func(from, size int, payload any) { hit = true }); err != nil {
		t.Fatal(err)
	}
	b := n.AddNode(nil, 0, 0)
	n.Send(b, a, 1, nil)
	n.Run(time.Second)
	if !hit {
		t.Fatal("replaced handler not invoked")
	}
	if err := n.SetHandler(42, nil); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestTransferTime(t *testing.T) {
	if transferTime(12500, 1_000_000) != 100*time.Millisecond {
		t.Fatal("transferTime math wrong")
	}
	if transferTime(1000, 0) != 0 {
		t.Fatal("infinite bandwidth should be instantaneous")
	}
}

func BenchmarkNetworkSendDeliver(b *testing.B) {
	n, err := New(Config{Latency: ConstantLatency(time.Millisecond), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a := n.AddNode(nil, 0, 0)
	c := n.AddNode(func(from, size int, payload any) {}, 0, 0)
	payload := any(&struct{ cells []int }{cells: []int{1, 2, 3}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(a, c, 100, payload)
		if i%1000 == 999 {
			n.Run(n.Now() + time.Second)
		}
	}
	n.Run(n.Now() + time.Hour)
}

// TestEndpointLossSemantics pins what the protocol layers rely on in a
// node's Endpoint: Send is the lossy path and SendReliable the seeding
// path, at the highest loss rate the network accepts, and both carry the
// endpoint's own index as the sender.
func TestEndpointLossSemantics(t *testing.T) {
	net, err := New(Config{Latency: ConstantLatency(time.Millisecond), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	delivered := map[string]int{}
	net.AddNode(nil, 0, 0)
	sender := net.AddNode(nil, 0, 0)
	net.AddNode(func(from, size int, payload any) {
		if from != sender {
			t.Errorf("from = %d, want %d", from, sender)
		}
		delivered[payload.(string)]++
	}, 0, 0)
	net.SetLossRate(1) // clamped just below 1
	ep := net.Endpoint(sender)
	for i := 0; i < 200; i++ {
		ep.Send(2, 100, "lossy")
		ep.SendReliable(2, 100, "reliable")
	}
	fired := time.Duration(-1)
	ep.After(5*time.Millisecond, func() { fired = ep.Now() })
	net.Run(time.Second)
	if delivered["lossy"] != 0 || delivered["reliable"] != 200 {
		t.Fatalf("delivered %v, want no lossy and 200 reliable", delivered)
	}
	if fired != 5*time.Millisecond {
		t.Fatalf("After fired at %v", fired)
	}
}
