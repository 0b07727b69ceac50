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

	// zmm holds the nibble tables the AVX-512 kernels read.
	zmm nibbleTables
}

// nibbleTables holds the nibble-split shuffle tables consumed by the
// AVX-512 kernels in kernels_amd64.s, which read the four vectors at byte
// offsets 0, 64, 128 and 192 — keep the layout in sync with the assembly.
// Writing c*s = T0[s&15] ^ T1[s>>4&15] ^ T2[s>>8&15] ^ T3[s>>12]
// (linearity over the nibble decomposition), each 64-byte vector carries
// four 16-entry byte tables, one per 128-bit VPSHUFB lane, arranged for
// the deinterleaved layout the kernel produces (low bytes of 32 words,
// then high bytes):
//
//	[0] = [T0lo T0lo T2lo T2lo]  (even nibbles, product low byte)
//	[1] = [T1lo T1lo T3lo T3lo]  (odd  nibbles, product low byte)
//	[2] = [T0hi T0hi T2hi T2hi]  (even nibbles, product high byte)
//	[3] = [T1hi T1hi T3hi T3hi]  (odd  nibbles, product high byte)
//
// At 256 bytes they are a quarter of the split tables: a multiply whose
// length is a whole number of 64-byte blocks needs nothing else.
type nibbleTables [4][64]byte

// BuildTable computes the split tables for coefficient c. Callers that
// apply the same coefficient repeatedly should use TableFor, which
// caches the result process-wide.
func BuildTable(c uint16) *MulTable16 {
	t := new(MulTable16)
	t.fill(c)
	return t
}

// bitImages returns c*x^b for b in 0..15, the products of the sixteen
// bits of a word. c*s is GF(2)-linear in s, so every table entry is the
// XOR of these over the set bits of its index: no walk over the log/exp
// tables, cheap enough to build a table for a single use (MulBytes).
func bitImages(c uint16) (bit [16]uint16) {
	p := uint32(c)
	for b := range bit {
		bit[b] = uint16(p)
		if p <<= 1; p&Order != 0 {
			p ^= Polynomial
		}
	}
	return bit
}

// fill sets a zero-valued table to the split and nibble tables of c.
// Each doubling of a split table adds the product of one more bit of s,
// one XOR per entry.
func (t *MulTable16) fill(c uint16) {
	bit := bitImages(c)
	for b := 0; b < 8; b++ {
		w, lo, hi := 1<<b, bit[b], bit[b+8]
		for s := 0; s < w; s++ {
			t.Lo[(w+s)&255] = t.Lo[s&255] ^ lo // masks only drop the bounds checks
			t.Hi[(w+s)&255] = t.Hi[s&255] ^ hi
		}
	}
	t.zmm.fill(&bit)
}

// fill sets the nibble tables of the coefficient whose bit images are
// given. Entry n of T_j is the XOR of the images of the set bits of
// n<<4j, so the bytes of eight entries are built at once in a word.
func (z *nibbleTables) fill(bit *[16]uint16) {
	// ones spreads a byte over a word; m0, m1 and m2 keep the bytes i with
	// bit 0, 1 or 2 of i set, and bit 3 picks the second word.
	const ones, m0, m1, m2 = 0x0101010101010101, 0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000
	var lo, hi [4][2]uint64 // product bytes of T_j[0..7] and T_j[8..15]
	for j := range lo {
		v0, v1, v2, v3 := bit[4*j], bit[4*j+1], bit[4*j+2], bit[4*j+3]
		l := uint64(byte(v0))*ones&m0 ^ uint64(byte(v1))*ones&m1 ^ uint64(byte(v2))*ones&m2
		h := uint64(v0>>8)*ones&m0 ^ uint64(v1>>8)*ones&m1 ^ uint64(v2>>8)*ones&m2
		lo[j] = [2]uint64{l, l ^ uint64(byte(v3))*ones}
		hi[j] = [2]uint64{h, h ^ uint64(v3>>8)*ones}
	}
	put := func(v *[64]byte, even, odd *[2]uint64) {
		le := binary.LittleEndian
		le.PutUint64(v[0:], even[0])
		le.PutUint64(v[8:], even[1])
		le.PutUint64(v[16:], even[0])
		le.PutUint64(v[24:], even[1])
		le.PutUint64(v[32:], odd[0])
		le.PutUint64(v[40:], odd[1])
		le.PutUint64(v[48:], odd[0])
		le.PutUint64(v[56:], odd[1])
	}
	put(&z[0], &lo[0], &lo[2])
	put(&z[1], &lo[1], &lo[3])
	put(&z[2], &hi[0], &hi[2])
	put(&z[3], &hi[1], &hi[3])
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
		muladdAVX512(&t.zmm, &src[0], &dst[0], blk)
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
		mulAVX512(&t.zmm, &src[0], &dst[0], blk)
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
		fwdBflyAVX512(&t.zmm, &u[0], &v[0], blk)
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
		invBflyAVX512(&t.zmm, &u[0], &v[0], blk)
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
