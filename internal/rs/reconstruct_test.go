package rs

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
)

// codeword returns a random codeword of the k -> 2k code, encoded by the
// oracle so that decode tests do not lean on Codec16.Encode.
func codeword(t testing.TB, rng *rand.Rand, k, size int) [][]byte {
	t.Helper()
	master := randShards(rng, k, 2*k, size)
	oracleFor(t, k).encodeShards(master)
	return master
}

// checkAgainstOracle reconstructs the same line with Codec16 and with the
// matrix oracle and requires identical bytes and present shards left
// alone (same backing array, same contents). A missing shard must come
// back in the memory its entry supplied when that has room for it, and
// in a fresh slice otherwise: no two restored shards share memory.
func checkAgainstOracle(t testing.TB, c *Codec16, shards [][]byte) {
	t.Helper()
	before := cloneShards(shards)
	want := cloneShards(shards)
	oracleFor(t, c.k).reconstruct(want)
	got := append([][]byte(nil), shards...)
	if err := c.Reconstruct(got); err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	restored := map[*byte]int{}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("shard %d differs from the matrix decoder (present=%v)", i, before[i] != nil)
		}
		if before[i] == nil {
			if len(got[i]) == 0 {
				continue
			}
			p := &got[i][0]
			if j, dup := restored[p]; dup {
				t.Fatalf("restored shards %d and %d share memory", j, i)
			}
			restored[p] = i
			if cap(shards[i]) >= len(got[i]) && p != &shards[i][:1][0] {
				t.Fatalf("missing shard %d was not decoded into the memory it supplied", i)
			}
			continue
		}
		if len(got[i]) > 0 && &got[i][0] != &shards[i][0] {
			t.Fatalf("present shard %d was replaced", i)
		}
		if !bytes.Equal(shards[i], before[i]) {
			t.Fatalf("present shard %d was written", i)
		}
	}
}

// withDestinations gives some missing shards of a pattern memory to be
// decoded into: an empty window of one shared buffer with room for a
// shard (the in-place path), or one a word too small (a fresh slice, like
// nil). The rest stay nil.
func withDestinations(rng *rand.Rand, shards [][]byte, size int) {
	backing := make([]byte, len(shards)*size)
	for i, s := range shards {
		if s != nil {
			continue
		}
		off := i * size
		switch rng.Intn(3) {
		case 1:
			shards[i] = backing[off : off : off+size]
		case 2:
			shards[i] = backing[off : off : off+size-2]
		}
	}
}

// TestReconstructFromAnyK is exhaustive for the small codes: every
// subset of at least k present shards, including the complete line.
func TestReconstructFromAnyK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 4} {
		n := 2 * k
		c := mustCodec16(t, k, n)
		master := codeword(t, rng, k, 6)
		for mask := 0; mask < 1<<n; mask++ {
			if bits.OnesCount(uint(mask)) < k {
				continue
			}
			shards := make([][]byte, n)
			for i := range shards {
				if mask>>i&1 == 1 {
					shards[i] = append([]byte(nil), master[i]...)
				}
			}
			checkAgainstOracle(t, c, shards)
		}
	}
}

// randomPattern keeps `keep` random shards of master (copies) and, when
// corrupt is set and more than k are kept, flips bytes in one kept shard
// beyond the first k: the first-k rule says it must be ignored.
func randomPattern(rng *rand.Rand, master [][]byte, k, keep int, corrupt bool) [][]byte {
	n := len(master)
	shards := make([][]byte, n)
	for _, i := range rng.Perm(n)[:keep] {
		shards[i] = append([]byte(nil), master[i]...)
	}
	if corrupt && keep > k {
		seen := 0
		for i := range shards {
			if shards[i] == nil {
				continue
			}
			if seen++; seen > k && len(shards[i]) > 0 {
				shards[i][rng.Intn(len(shards[i]))] ^= 0x5a
				break
			}
		}
	}
	return shards
}

// TestReconstructMatchesMatrix is the differential test: random erasure
// patterns with k..n-1 present shards, cell sizes on and off the 64-byte
// AVX-512 stride, and lines whose surplus shards disagree with the first
// k. The k=256 cases cost a 256^3 scalar inversion each in the oracle.
func TestReconstructMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, tc := range []struct {
		k, patterns int
		sizes       []int
	}{
		{8, 40, []int{2, 6, 62, 64, 66, 130, 512, 1024}},
		{32, 12, []int{2, 70, 128, 512, 1000}},
		{256, 2, []int{2, 66}},
	} {
		c := mustCodec16(t, tc.k, 2*tc.k)
		for _, size := range tc.sizes {
			master := codeword(t, rng, tc.k, size)
			for p := 0; p < tc.patterns; p++ {
				keep := tc.k
				if p%2 == 1 {
					keep += rng.Intn(tc.k) // up to n-1
				}
				checkAgainstOracle(t, c, randomPattern(rng, master, tc.k, keep, p%4 == 3))
			}
		}
	}
}

// FuzzReconstructMatchesMatrix drives the same comparison from fuzzed
// geometry, pattern, size and payload seed.
func FuzzReconstructMatchesMatrix(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(512), int64(1), false)
	f.Add(uint8(1), uint16(31), uint16(66), int64(2), true)
	f.Add(uint8(2), uint16(255), uint16(2), int64(3), true)
	f.Add(uint8(1), uint16(7), uint16(1023), int64(4), false)
	f.Fuzz(func(t *testing.T, geom uint8, extra, size uint16, seed int64, corrupt bool) {
		k := []int{8, 32, 256}[int(geom)%3]
		cell := 2 + 2*(int(size)%512) // 2..1024, even
		if k == 256 {
			cell = 2 + cell%64 // the oracle is O(k^2) per word
		}
		rng := rand.New(rand.NewSource(seed))
		master := codeword(t, rng, k, cell)
		keep := k + int(extra)%k
		shards := randomPattern(rng, master, k, keep, corrupt)
		withDestinations(rng, shards, cell)
		checkAgainstOracle(t, mustCodec16(t, k, 2*k), shards)
	})
}

func TestReconstructNoopWhenComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := mustCodec16(t, 4, 8)
	shards := codeword(t, rng, 4, 16)
	shards[6][3] ^= 1 // not even a codeword: a complete line is returned as is
	checkAgainstOracle(t, c, shards)
}

func TestShardSizeMismatch(t *testing.T) {
	c := mustCodec16(t, 2, 4)
	shards := [][]byte{make([]byte, 8), make([]byte, 10), nil, nil}
	if err := c.Encode(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("Encode err = %v, want ErrShardSize", err)
	}
	if err := c.Reconstruct(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("Reconstruct err = %v, want ErrShardSize", err)
	}
	odd := [][]byte{make([]byte, 7), nil, make([]byte, 7), nil}
	if err := c.Reconstruct(odd); !errors.Is(err, ErrShardSize) {
		t.Fatalf("Reconstruct odd size err = %v, want ErrShardSize", err)
	}
	if odd[1] != nil || odd[3] != nil {
		t.Fatal("failed Reconstruct filled shards")
	}
}

func TestWrongShardCount(t *testing.T) {
	c := mustCodec16(t, 2, 4)
	if err := c.Encode(make([][]byte, 3)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("Encode err = %v, want ErrShardCount", err)
	}
	if err := c.Reconstruct(make([][]byte, 5)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("Reconstruct err = %v, want ErrShardCount", err)
	}
}

// TestReconstructKeepsNoState pins what replaced the decode-matrix LRU
// and the per-coefficient table cache: decoding thousands of distinct
// erasure patterns retains nothing (the matrix decoder grew the heap by
// 80 MB on this loop), and a warm decode allocates the shards it returns
// plus a constant.
func TestReconstructKeepsNoState(t *testing.T) {
	const k, n, size = 32, 64, 512
	rng := rand.New(rand.NewSource(60))
	c := mustCodec16(t, k, n)
	master := randShards(rng, k, n, size)
	if err := c.Encode(master); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, n)
	decode := func() {
		clear(shards)
		for _, i := range rng.Perm(n)[:k] {
			shards[i] = master[i]
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	decode()
	before := heap()
	for i := 0; i < 3000; i++ {
		decode()
	}
	if after := heap(); after > before+4<<20 {
		t.Fatalf("3000 random-pattern decodes grew the live heap by %.1f MB", float64(after-before)/(1<<20))
	}
	for i := range master {
		if !bytes.Equal(shards[i], master[i]) {
			t.Fatalf("shard %d wrong after the loop", i)
		}
	}
	// k returned shards per decode; the constant covers rng.Perm and a
	// workspace the pool may have dropped at a GC.
	if allocs := testing.AllocsPerRun(50, decode); allocs > k+4 {
		t.Fatalf("warm decode: %.0f allocations, want <= %d", allocs, k+4)
	}
}
