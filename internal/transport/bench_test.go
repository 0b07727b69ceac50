package transport

import (
	"math/rand"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/wire"
)

// benchCellBytes is the paper's cell payload size.
const benchCellBytes = 512

// benchMessages returns the two datagrams a node handles most: a 32-ID
// query and a full 96-cell response, from a fixed seed.
func benchMessages() (*wire.Query, *wire.Response) {
	rng := rand.New(rand.NewSource(1))
	q := &wire.Query{Slot: 1}
	for i := 0; i < 32; i++ {
		q.Cells = append(q.Cells, blob.CellID{Row: uint16(rng.Intn(64)), Col: uint16(rng.Intn(64))})
	}
	r := &wire.Response{Slot: 1}
	for i := 0; i < wire.MaxCellsPerMessage; i++ {
		c := wire.Cell{ID: blob.CellID{Row: uint16(rng.Intn(64)), Col: uint16(rng.Intn(64))}}
		c.Data = make([]byte, benchCellBytes)
		rng.Read(c.Data)
		rng.Read(c.Proof[:])
		r.Cells = append(r.Cells, c)
	}
	return q, r
}

// loopbackPair binds two endpoints that know each other; neither is
// started.
func loopbackPair(tb testing.TB, cellBytes int) (a, b *UDP) {
	tb.Helper()
	var err error
	if a, err = NewUDP(0, "127.0.0.1:0", cellBytes); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { a.Close() })
	if b, err = NewUDP(1, "127.0.0.1:0", cellBytes); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { b.Close() })
	addrs := []string{a.Addr(), b.Addr()}
	for _, ep := range []*UDP{a, b} {
		if err := ep.SetPeers(addrs); err != nil {
			tb.Fatal(err)
		}
	}
	return a, b
}

// benchLoopback measures one datagram from Send on one endpoint to the
// handler on the other, one in flight: encode, two system calls, the
// hand-off to the event loop, decode. allocs/op covers both endpoints.
// Run at a fixed count (-benchtime Nx) to compare commits.
func benchLoopback(b *testing.B, msg wire.Message) {
	src, dst := loopbackPair(b, benchCellBytes)
	handled := make(chan struct{}, 1)
	dst.Start(func(from, size int, payload any) { handled <- struct{}{} })
	size := msg.WireSize(benchCellBytes)
	src.Send(1, size, msg) // warm the pools
	<-handled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(1, size, msg)
		<-handled
	}
}

func BenchmarkLoopbackQuery32(b *testing.B) {
	q, _ := benchMessages()
	benchLoopback(b, q)
}

func BenchmarkLoopbackResponse96(b *testing.B) {
	_, r := benchMessages()
	benchLoopback(b, r)
}
