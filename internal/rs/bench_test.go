package rs

import (
	"fmt"
	"math/rand"
	"testing"
)

// Paper geometry for the GF(2^16) codec: each row/column codeword of the
// extended matrix has K=256 data shards extended to 512, with 512 B
// cells.
const (
	benchK16   = 256
	benchN16   = 512
	benchShard = 512
)

func benchShards16(b *testing.B, c *Codec16, size int) [][]byte {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	shards := make([][]byte, c.TotalShards())
	for i := 0; i < c.DataShards(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

// BenchmarkEncode16 measures Codec16.Encode at paper geometry
// (K=256 -> 512, 512 B shards): the additive-FFT path. Throughput is
// relative to the data bytes encoded.
func BenchmarkEncode16(b *testing.B) {
	c, err := New16(benchK16, benchN16)
	if err != nil {
		b.Fatal(err)
	}
	shards := benchShards16(b, c, benchShard)
	b.SetBytes(int64(benchK16 * benchShard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstruct16 measures Codec16.Reconstruct of one line with
// exactly k of 2k shards present, 512 B cells, at the sim_real_faulty
// geometry (k32) and at paper geometry (k256). half_erased repeats one
// pattern (every other shard); random draws a fresh pattern per
// iteration from a pre-generated list. The decoder keeps no per-pattern
// state, so the two differ only by which shards are touched. Run with a
// fixed count: -benchtime 200x -benchmem.
func BenchmarkReconstruct16(b *testing.B) {
	for _, k := range []int{32, 256} {
		c, err := New16(k, 2*k)
		if err != nil {
			b.Fatal(err)
		}
		master := benchShards16(b, c, benchShard)
		if err := c.Encode(master); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		alternate := make([]int, k)
		for j := range alternate {
			alternate[j] = 2 * j
		}
		patterns := make([][]int, 64)
		for i := range patterns {
			patterns[i] = rng.Perm(2 * k)[:k]
		}
		run := func(name string, keep func(i int) []int) {
			b.Run(fmt.Sprintf("k%d/%s", k, name), func(b *testing.B) {
				shards := make([][]byte, 2*k)
				b.SetBytes(int64(k * benchShard))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(shards)
					for _, pos := range keep(i) {
						shards[pos] = master[pos]
					}
					if err := c.Reconstruct(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("half_erased", func(int) []int { return alternate })
		run("random", func(i int) []int { return patterns[i%len(patterns)] })
	}
}
