package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncode16FFTMatchesMatrix pins the additive-FFT encode to the
// systematic Vandermonde matrix product: both must produce bit-identical
// parity, from the degenerate k=1 copy up to paper geometry.
func TestEncode16FFTMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, k := range []int{1, 2, 4, 8, 16, 32, 256} {
		c := mustCodec16(t, k, 2*k)
		a := randShards(rng, k, 2*k, 70)
		b := cloneShards(a)
		if err := c.Encode(a); err != nil {
			t.Fatalf("k=%d fft encode: %v", k, err)
		}
		oracleFor(t, k).encodeShards(b)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("k=%d shard %d: FFT and matrix encodes differ", k, i)
			}
		}
	}
}

// TestEncode16ReusesParityCapacity checks that Encode writes into
// caller-provided parity buffers instead of reallocating.
func TestEncode16ReusesParityCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := mustCodec16(t, 4, 8)
	shards := randShards(rng, 4, 8, 32)
	for i := 4; i < 8; i++ {
		shards[i] = make([]byte, 0, 64) // ample capacity, zero length
	}
	before := make([]*byte, 8)
	for i := 4; i < 8; i++ {
		before[i] = &shards[i][:1][0]
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		if len(shards[i]) != 32 {
			t.Fatalf("parity %d resized to %d, want 32", i, len(shards[i]))
		}
		if &shards[i][0] != before[i] {
			t.Fatalf("parity %d was reallocated despite sufficient capacity", i)
		}
	}
	want := cloneShards(shards)
	oracleFor(t, 4).encodeShards(want)
	for i := range shards {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("shard %d differs from the oracle after encoding into reused buffers", i)
		}
	}
}
