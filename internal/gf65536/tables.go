package gf65536

import (
	"encoding/binary"
	"sync/atomic"
)

// MulTable16 holds the split multiplication tables for one fixed
// coefficient c: for a 16-bit word s = hi<<8 | lo,
//
//	c*s = Hi[hi] ^ Lo[lo]
//
// by linearity of GF(2^16) multiplication over the bit decomposition of
// s. Each table has 256 uint16 entries (1 KiB per coefficient in total),
// so the working set of a multiply-accumulate pass fits in L1 cache —
// unlike the scalar log/exp path, whose lookups roam a 384 KiB table
// pair. All MulTable16 methods are branch-free per word and process
// eight bytes (four words) per loop iteration.
type MulTable16 struct {
	Lo [256]uint16 // c * s for s in 0..255
	Hi [256]uint16 // c * (s<<8) for s in 0..255

	// zmm holds the nibble-split shuffle tables consumed by the AVX-512
	// kernels in kernels_amd64.s, which index this struct by fixed byte
	// offset (1024 + 64*i) — keep the field order and sizes in sync with
	// the assembly. Writing c*s = T0[s&15] ^ T1[s>>4&15] ^ T2[s>>8&15] ^
	// T3[s>>12] (linearity over the nibble decomposition), each 64-byte
	// vector carries four 16-entry byte tables, one per 128-bit VPSHUFB
	// lane, arranged for the deinterleaved layout the kernel produces
	// (low bytes of 32 words, then high bytes):
	//
	//	zmm[0] = [T0lo T0lo T2lo T2lo]  (even nibbles, product low byte)
	//	zmm[1] = [T1lo T1lo T3lo T3lo]  (odd  nibbles, product low byte)
	//	zmm[2] = [T0hi T0hi T2hi T2hi]  (even nibbles, product high byte)
	//	zmm[3] = [T1hi T1hi T3hi T3hi]  (odd  nibbles, product high byte)
	zmm [4][64]byte
}

// BuildTable computes the split tables for coefficient c. Callers that
// apply the same coefficient repeatedly should use TableFor, which
// caches the result process-wide.
func BuildTable(c uint16) *MulTable16 {
	t := new(MulTable16)
	t.fill(c)
	return t
}

// fill sets a zero-valued table to the split tables of c. c*s is
// GF(2)-linear in s, so each doubling of a table adds the product of one
// more bit of s: sixteen multiplications by x and one XOR per entry,
// with no walk over the log/exp tables — cheap enough to build a table
// for a single use (MulBytes).
func (t *MulTable16) fill(c uint16) {
	var bit [16]uint16 // bit[b] = c * x^b
	p := uint32(c)
	for b := range bit {
		bit[b] = uint16(p)
		if p <<= 1; p&Order != 0 {
			p ^= Polynomial
		}
	}
	for b := 0; b < 8; b++ {
		w, lo, hi := 1<<b, bit[b], bit[b+8]
		for s := 0; s < w; s++ {
			t.Lo[(w+s)&255] = t.Lo[s&255] ^ lo // masks only drop the bounds checks
			t.Hi[(w+s)&255] = t.Hi[s&255] ^ hi
		}
	}
	for n := 1; n < 16; n++ {
		t0 := t.Lo[n]    // c * n
		t1 := t.Lo[n<<4] // c * (n<<4)
		t2 := t.Hi[n]    // c * (n<<8)
		t3 := t.Hi[n<<4] // c * (n<<12)
		t.zmm[0][n], t.zmm[0][16+n] = byte(t0), byte(t0)
		t.zmm[0][32+n], t.zmm[0][48+n] = byte(t2), byte(t2)
		t.zmm[1][n], t.zmm[1][16+n] = byte(t1), byte(t1)
		t.zmm[1][32+n], t.zmm[1][48+n] = byte(t3), byte(t3)
		t.zmm[2][n], t.zmm[2][16+n] = byte(t0>>8), byte(t0>>8)
		t.zmm[2][32+n], t.zmm[2][48+n] = byte(t2>>8), byte(t2>>8)
		t.zmm[3][n], t.zmm[3][16+n] = byte(t1>>8), byte(t1>>8)
		t.zmm[3][32+n], t.zmm[3][48+n] = byte(t3>>8), byte(t3>>8)
	}
}

// tableCache lazily caches one MulTable16 per coefficient, shared by all
// codecs in the process. The pointer array costs 512 KiB; tables are
// built on first use and never evicted, so TableFor is for coefficients
// fixed by a code's geometry (FFT twiddles), not for ones that vary per
// call (see MulBytes).
var tableCache [Order]atomic.Pointer[MulTable16]

// TableFor returns the (cached) split multiplication table for c.
// Safe for concurrent use.
func TableFor(c uint16) *MulTable16 {
	if t := tableCache[c].Load(); t != nil {
		return t
	}
	t := BuildTable(c)
	if !tableCache[c].CompareAndSwap(nil, t) {
		t = tableCache[c].Load()
	}
	return t
}

// productWord computes c*s for four packed big-endian 16-bit words at
// once through the split tables — the shared inner step of the scalar
// word-parallel kernels.
func productWord(t *MulTable16, s uint64) uint64 {
	return uint64(t.Hi[s>>56]^t.Lo[s>>48&0xff])<<48 |
		uint64(t.Hi[s>>40&0xff]^t.Lo[s>>32&0xff])<<32 |
		uint64(t.Hi[s>>24&0xff]^t.Lo[s>>16&0xff])<<16 |
		uint64(t.Hi[s>>8&0xff]^t.Lo[s&0xff])
}

// MulAdd sets dst ^= c*src over big-endian 16-bit words, where c is the
// table's coefficient. len(dst) must be >= len(src); a trailing odd byte
// is ignored (slices used with the codec are always even-sized).
func (t *MulTable16) MulAdd(src, dst []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	i := 0
	if haveAVX512 && n >= 64 {
		blk := n &^ 63
		muladdAVX512(t, &src[0], &dst[0], blk)
		i = blk
	}
	for ; i+8 <= n; i += 8 {
		s := binary.BigEndian.Uint64(src[i:])
		p := productWord(t, s)
		binary.BigEndian.PutUint64(dst[i:], binary.BigEndian.Uint64(dst[i:])^p)
	}
	for ; i+1 < n; i += 2 {
		p := t.Hi[src[i]] ^ t.Lo[src[i+1]]
		dst[i] ^= byte(p >> 8)
		dst[i+1] ^= byte(p)
	}
}

// Mul sets dst = c*src over big-endian 16-bit words (overwrite form,
// saving the dst pre-read of MulAdd). Same length rules as MulAdd.
func (t *MulTable16) Mul(src, dst []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	i := 0
	if haveAVX512 && n >= 64 {
		blk := n &^ 63
		mulAVX512(t, &src[0], &dst[0], blk)
		i = blk
	}
	for ; i+8 <= n; i += 8 {
		s := binary.BigEndian.Uint64(src[i:])
		binary.BigEndian.PutUint64(dst[i:], productWord(t, s))
	}
	for ; i+1 < n; i += 2 {
		p := t.Hi[src[i]] ^ t.Lo[src[i+1]]
		dst[i] = byte(p >> 8)
		dst[i+1] = byte(p)
	}
}

// MulAdd8 sets dst ^= c0*s0 ^ ... ^ c7*s7 in a single pass: one dst
// read-modify-write sweep amortized over eight sources, processing four
// coefficients per uint64 lane. All eight sources must have the same
// length; len(dst) must be >= that length. Its caller is the slot
// benchmark's gf65536.muladd8_mbps probe.
func MulAdd8(t0, t1, t2, t3, t4, t5, t6, t7 *MulTable16,
	s0, s1, s2, s3, s4, s5, s6, s7, dst []byte) {
	n := len(s0)
	if len(dst) < n {
		n = len(dst)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		p := productWord(t0, binary.BigEndian.Uint64(s0[i:])) ^
			productWord(t1, binary.BigEndian.Uint64(s1[i:])) ^
			productWord(t2, binary.BigEndian.Uint64(s2[i:])) ^
			productWord(t3, binary.BigEndian.Uint64(s3[i:])) ^
			productWord(t4, binary.BigEndian.Uint64(s4[i:])) ^
			productWord(t5, binary.BigEndian.Uint64(s5[i:])) ^
			productWord(t6, binary.BigEndian.Uint64(s6[i:])) ^
			productWord(t7, binary.BigEndian.Uint64(s7[i:]))
		binary.BigEndian.PutUint64(dst[i:], binary.BigEndian.Uint64(dst[i:])^p)
	}
	for ; i+1 < n; i += 2 {
		p := t0.Hi[s0[i]] ^ t0.Lo[s0[i+1]] ^ t1.Hi[s1[i]] ^ t1.Lo[s1[i+1]] ^
			t2.Hi[s2[i]] ^ t2.Lo[s2[i+1]] ^ t3.Hi[s3[i]] ^ t3.Lo[s3[i+1]] ^
			t4.Hi[s4[i]] ^ t4.Lo[s4[i+1]] ^ t5.Hi[s5[i]] ^ t5.Lo[s5[i+1]] ^
			t6.Hi[s6[i]] ^ t6.Lo[s6[i+1]] ^ t7.Hi[s7[i]] ^ t7.Lo[s7[i+1]]
		dst[i] ^= byte(p >> 8)
		dst[i+1] ^= byte(p)
	}
}

// FwdButterfly applies the forward (fft) additive-FFT butterfly in one
// fused pass over big-endian 16-bit words:
//
//	u ^= t*v ; v ^= u
//
// A nil table means the twiddle is zero (u unchanged, v ^= u). Fusing
// the multiply-accumulate and the XOR halves the memory sweeps of the
// two-call formulation, which dominates when codewords exceed cache.
// len is min(len(u), len(v)); u and v must not overlap.
func FwdButterfly(t *MulTable16, u, v []byte) {
	if t == nil {
		AddBytes(u, v)
		return
	}
	n := len(u)
	if len(v) < n {
		n = len(v)
	}
	i := 0
	if haveAVX512 && n >= 64 {
		blk := n &^ 63
		fwdBflyAVX512(t, &u[0], &v[0], blk)
		i = blk
	}
	for ; i+8 <= n; i += 8 {
		sv := binary.BigEndian.Uint64(v[i:])
		nu := binary.BigEndian.Uint64(u[i:]) ^ productWord(t, sv)
		binary.BigEndian.PutUint64(u[i:], nu)
		binary.BigEndian.PutUint64(v[i:], sv^nu)
	}
	for ; i+1 < n; i += 2 {
		p := t.Hi[v[i]] ^ t.Lo[v[i+1]]
		u[i] ^= byte(p >> 8)
		u[i+1] ^= byte(p)
		v[i] ^= u[i]
		v[i+1] ^= u[i+1]
	}
}

// InvButterfly applies the inverse (ifft) additive-FFT butterfly in one
// fused pass:
//
//	v ^= u ; u ^= t*v
//
// A nil table means the twiddle is zero (v ^= u only). Same length and
// overlap rules as FwdButterfly.
func InvButterfly(t *MulTable16, u, v []byte) {
	if t == nil {
		AddBytes(u, v)
		return
	}
	n := len(u)
	if len(v) < n {
		n = len(v)
	}
	i := 0
	if haveAVX512 && n >= 64 {
		blk := n &^ 63
		invBflyAVX512(t, &u[0], &v[0], blk)
		i = blk
	}
	for ; i+8 <= n; i += 8 {
		nv := binary.BigEndian.Uint64(v[i:]) ^ binary.BigEndian.Uint64(u[i:])
		binary.BigEndian.PutUint64(v[i:], nv)
		binary.BigEndian.PutUint64(u[i:],
			binary.BigEndian.Uint64(u[i:])^productWord(t, nv))
	}
	for ; i+1 < n; i += 2 {
		v[i] ^= u[i]
		v[i+1] ^= u[i+1]
		p := t.Hi[v[i]] ^ t.Lo[v[i+1]]
		u[i] ^= byte(p >> 8)
		u[i+1] ^= byte(p)
	}
}

// AddBytes sets dst ^= src with wide 8-byte XORs (the c==1 fast path;
// XOR is endianness-agnostic). A trailing odd byte IS processed, since
// plain addition has no word structure.
func AddBytes(src, dst []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	i := 0
	if haveAVX512 && n >= 64 {
		blk := n &^ 63
		xorAVX512(&src[0], &dst[0], blk)
		i = blk
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
