package gateway

import (
	"context"
	"sync/atomic"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/kzg"
	"pandas/internal/wire"
)

// BenchmarkQueryCacheHit measures the fast path: a sharded cache lookup
// on the caller's goroutine, under parallel load.
func BenchmarkQueryCacheHit(b *testing.B) {
	up := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		return testCell(id), nil
	})
	g, err := New(Config{Upstream: up})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	const hot = 256
	for i := 0; i < hot; i++ {
		id := blob.CellID{Row: uint16(i / 16), Col: uint16(i % 16)}
		if _, err := g.Query(context.Background(), 0, 1, id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := blob.CellID{Row: uint16(i / 16 % 16), Col: uint16(i % 16)}
			if _, err := g.Query(context.Background(), i, 1, id); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkQueryMissVerified measures the full miss path — admission,
// coalescer, worker fetch, proof verification, cache fill —
// with a distinct cell per iteration (worst case: nothing coalesces).
func BenchmarkQueryMissVerified(b *testing.B) {
	var commit kzg.Commitment
	copy(commit[:], "bench-blob")
	up := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		c := testCell(id)
		c.Proof = kzg.Prove(commit, id, c.Data)
		return c, nil
	})
	g, err := New(Config{Upstream: up, VerifyProofs: true, CacheBytes: 1 << 30, QueueDepth: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	g.StartSlot(1, commit)
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			id := blob.CellID{Row: uint16(n >> 16), Col: uint16(n)}
			if _, err := g.Query(context.Background(), int(n%64), 1, id); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCacheAddGet measures the raw sharded-LRU cost.
func BenchmarkCacheAddGet(b *testing.B) {
	c := NewCache(64<<20, 16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := Key{Slot: 1, ID: blob.CellID{Row: uint16(i % 512), Col: uint16(i % 61)}}
			if i%4 == 0 {
				c.Add(k, wire.Cell{ID: k.ID, Data: make([]byte, 64)})
			} else {
				c.Get(k)
			}
			i++
		}
	})
}
