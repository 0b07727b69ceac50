package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCodec16(t testing.TB, k, n int) *Codec16 {
	t.Helper()
	c, err := New16(k, n)
	if err != nil {
		t.Fatalf("New16(%d, %d): %v", k, n, err)
	}
	return c
}

func randShards(rng *rand.Rand, k, n, size int) [][]byte {
	shards := make([][]byte, n)
	for i := 0; i < k; i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out
}

func TestNew16RejectsBadParams(t *testing.T) {
	for _, c := range []struct{ k, n int }{
		{0, 0}, {0, 4}, {-2, -4}, {4, 4}, {5, 4}, {1, 65537},
		{3, 6}, {12, 24}, {150, 300}, // k not a power of two
		{4, 6}, {8, 21}, {4, 16}, // n != 2k
		{65536, 131072},
	} {
		if _, err := New16(c.k, c.n); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("New16(%d,%d) err = %v", c.k, c.n, err)
		}
	}
	for _, k := range []int{1, 2, 256} {
		if _, err := New16(k, 2*k); err != nil {
			t.Errorf("New16(%d,%d): %v", k, 2*k, err)
		}
	}
}

func TestCodec16Systematic(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := mustCodec16(t, 4, 8)
	shards := randShards(rng, 4, 8, 64)
	orig := make([][]byte, 4)
	for i := range orig {
		orig[i] = append([]byte(nil), shards[i]...)
	}
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("data shard %d modified", i)
		}
	}
}

func TestCodec16RejectsOddShardSize(t *testing.T) {
	c := mustCodec16(t, 2, 4)
	shards := [][]byte{make([]byte, 7), make([]byte, 7), nil, nil}
	if err := c.Encode(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("err = %v, want ErrShardSize", err)
	}
}

func TestCodec16ReconstructBeyond256Shards(t *testing.T) {
	// The whole point of GF(2^16): more than 256 total shards, like the
	// paper's 256 -> 512 row extension, here with small shards.
	const k, n, size = 256, 512, 8
	rng := rand.New(rand.NewSource(21))
	c := mustCodec16(t, k, n)
	master := randShards(rng, k, n, size)
	if err := c.Encode(master); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		shards := make([][]byte, n)
		perm := rng.Perm(n)
		for _, i := range perm[:k] {
			shards[i] = append([]byte(nil), master[i]...)
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range master {
			if !bytes.Equal(shards[i], master[i]) {
				t.Fatalf("trial %d: shard %d mismatch", trial, i)
			}
		}
	}
}

func TestCodec16ReconstructParityOnlySurvivors(t *testing.T) {
	// Recover everything from parity shards alone (rate 1/2: any k works,
	// including the k parity shards).
	const k, n, size = 8, 16, 32
	rng := rand.New(rand.NewSource(22))
	c := mustCodec16(t, k, n)
	master := randShards(rng, k, n, size)
	if err := c.Encode(master); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, n)
	for i := k; i < n; i++ {
		shards[i] = append([]byte(nil), master[i]...)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range master {
		if !bytes.Equal(shards[i], master[i]) {
			t.Fatalf("shard %d mismatch", i)
		}
	}
}

func TestCodec16TooFewShards(t *testing.T) {
	c := mustCodec16(t, 4, 8)
	shards := make([][]byte, 8)
	shards[0] = make([]byte, 4)
	shards[1] = make([]byte, 4)
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestQuick16RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 << r.Intn(5)
		n := 2 * k
		size := 2 * (1 + r.Intn(16))
		c, err := New16(k, n)
		if err != nil {
			return false
		}
		shards := randShards(r, k, n, size)
		if err := c.Encode(shards); err != nil {
			return false
		}
		master := make([][]byte, n)
		for i := range shards {
			master[i] = append([]byte(nil), shards[i]...)
		}
		perm := r.Perm(n)
		for _, i := range perm[k:] {
			shards[i] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range master {
			if !bytes.Equal(master[i], shards[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode16Row32(b *testing.B) {
	// A scaled-down PANDAS row: 32 data cells -> 64, 512-byte cells.
	rng := rand.New(rand.NewSource(25))
	c := mustCodec16(b, 32, 64)
	shards := randShards(rng, 32, 64, 512)
	b.SetBytes(32 * 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}
