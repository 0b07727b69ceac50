// Package rs implements the systematic rate-1/2 Reed-Solomon erasure code
// over GF(2^16) that extends every row and column of the PANDAS blob
// matrix: k data shards become n = 2k shards (256 -> 512 in the paper)
// and any k of them recover the rest.
//
// The code is the classic evaluation code: data shard j is the value of
// the unique polynomial p of degree < k at the field element j, parity
// shard i is p(i). Shard contents are big-endian 16-bit words, each word
// position an independent codeword. Encode and Reconstruct both run on
// the additive FFT of rs16_fft.go — O(n log n) shard operations, no
// matrix, and no state that depends on which shards were lost.
package rs

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"pandas/internal/gf65536"
)

// MaxShards16 caps the total shard count of a Codec16 (distinct GF(2^16)
// evaluation points).
const MaxShards16 = 65536

// Errors returned by the codec.
var (
	ErrInvalidParams = errors.New("rs: invalid codec parameters")
	ErrTooFewShards  = errors.New("rs: not enough shards to reconstruct")
	ErrShardSize     = errors.New("rs: shards have inconsistent sizes")
	ErrShardCount    = errors.New("rs: wrong number of shards")
)

// Codec16 is the rate-1/2 codec for one geometry. Shard sizes must be
// even. A Codec16 is immutable apart from a pool of decode workspaces
// and is safe for concurrent use.
type Codec16 struct {
	k, n    int
	fft     *fftPlan
	scratch sync.Pool // *decodeScratch
}

// decodeScratch is the per-call workspace of Reconstruct.
type decodeScratch struct {
	work [][]byte // n shard-sized buffers
	loc  []int64  // n locator logarithms
}

// New16 creates the codec with k data shards and n = 2k total shards;
// k must be a power of two (the data points then form a GF(2)-subspace
// and the parity points its coset, which is what the FFT needs).
func New16(k, n int) (*Codec16, error) {
	if k < 1 || bits.OnesCount(uint(k)) != 1 || n != 2*k || n > MaxShards16 {
		return nil, fmt.Errorf("%w: k=%d n=%d (need n = 2k <= %d, k a power of two)",
			ErrInvalidParams, k, n, MaxShards16)
	}
	return &Codec16{k: k, n: n, fft: newFFTPlan(k)}, nil
}

// DataShards returns k.
func (c *Codec16) DataShards() int { return c.k }

// TotalShards returns n.
func (c *Codec16) TotalShards() int { return c.n }

// Encode computes parity shards k..n-1 from data shards 0..k-1.
// All data shards must be non-nil, equally sized, and of even length.
// Existing parity slices are reused when their capacity suffices.
func (c *Codec16) Encode(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	size, err := checkEvenShards(shards[:c.k])
	if err != nil {
		return err
	}
	for i := c.k; i < c.n; i++ {
		if cap(shards[i]) >= size {
			shards[i] = shards[i][:size]
		} else {
			shards[i] = make([]byte, size)
		}
	}
	// The workspace is the parity half itself: the inverse transform
	// reads the data shards directly (copying each at its recursion
	// leaf), then the forward transform evaluates on the parity coset —
	// the values land exactly where they belong, with zero extra buffers
	// and no separate copy sweep. Every write fully overwrites its
	// destination, so reused parity buffers need no clearing.
	w := shards[c.k:]
	ifft(w, shards[:c.k], c.fft.tab, 0, c.k)
	fft(w, c.fft.coset, 0, c.k)
	return nil
}

// Reconstruct fills in the missing shards given at least k present ones.
// A shard is missing when its entry is empty. The first k present shards
// in index order determine the codeword; further present shards are
// neither read nor written. A missing entry with capacity for a shard is
// decoded into in place, so a caller can hand out memory it owns (which
// must overlap no other shard); any other, nil included, comes back as a
// fresh slice owned by the caller.
//
// Decoding follows Lin, Al-Naffouri, Han and Chung (2016). With E the
// positions outside the chosen k and L(x) the locator vanishing on E,
// the product p·L has degree < n and is known at all n points: it is
// shard·L(i) at a chosen position and zero on E. One n-point inverse
// transform yields its coefficients; since (p·L)' = p'·L + p·L' and L
// vanishes on E, evaluating the formal derivative gives p(i)·L'(i) at
// every i in E, and dividing by L'(i) reveals the shard. Nothing in the
// computation outlives the call.
func (c *Codec16) Reconstruct(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	present, size, last := 0, -1, 0
	for i, s := range shards {
		if len(s) == 0 {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
		if present++; present == c.k {
			last = i
		}
	}
	if size > 0 && size%2 != 0 {
		return fmt.Errorf("%w: odd shard size %d", ErrShardSize, size)
	}
	if present < c.k {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, present, c.k)
	}
	if present == c.n {
		return nil
	}
	// E is everything but the first k present shards.
	inE := func(i int) bool { return len(shards[i]) == 0 || i > last }

	ds := c.getScratch(size)
	defer c.scratch.Put(ds)
	work, loc := ds.work, ds.loc
	for i := range loc {
		loc[i] = 0
		if inE(i) {
			loc[i] = 1
		}
	}
	c.fft.locatorLogs(loc) // log L(i) outside E, log L'(i) on E
	for i, s := range shards {
		if inE(i) {
			clear(work[i])
		} else {
			gf65536.MulBytes(gf65536.Exp(int(loc[i])), s, work[i])
		}
	}
	ifft(work, nil, c.fft.tab, 0, c.n)
	c.fft.derivative(work)
	fft(work, c.fft.tab, 0, c.n)
	for i, s := range shards {
		if len(s) != 0 {
			continue
		}
		if cap(s) >= size {
			s = s[:size]
		} else {
			s = make([]byte, size)
		}
		shards[i] = s
		gf65536.MulBytes(gf65536.Inv(gf65536.Exp(int(loc[i]))), work[i], s)
	}
	return nil
}

// getScratch returns a workspace of n buffers of size bytes.
func (c *Codec16) getScratch(size int) *decodeScratch {
	ds, _ := c.scratch.Get().(*decodeScratch)
	if ds == nil {
		ds = &decodeScratch{work: make([][]byte, c.n), loc: make([]int64, c.n)}
	}
	if cap(ds.work[0]) < size {
		backing := make([]byte, c.n*size)
		for i := range ds.work {
			ds.work[i] = backing[i*size : (i+1)*size : (i+1)*size]
		}
	}
	for i := range ds.work {
		ds.work[i] = ds.work[i][:size]
	}
	return ds
}

func checkEvenShards(data [][]byte) (int, error) {
	size := -1
	for i, s := range data {
		if s == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", ErrShardCount, i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
	}
	if size == 0 {
		return 0, fmt.Errorf("%w: empty shards", ErrShardSize)
	}
	if size%2 != 0 {
		return 0, fmt.Errorf("%w: odd shard size %d (GF(2^16) needs 16-bit words)", ErrShardSize, size)
	}
	return size, nil
}
