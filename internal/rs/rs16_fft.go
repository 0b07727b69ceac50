package rs

import (
	"math/bits"

	"pandas/internal/gf65536"
)

// Additive FFT (Lin–Chung–Han) behind Codec16.
//
// Data shard j is the value of a degree-<k polynomial p at the field
// element j, and parity shard i is p(i) for i in [k, 2k). With k a power
// of two, the data points {0..k-1} form the GF(2)-linear subspace
// W_h = span{x^0..x^{h-1}} (h = log2 k), the parity points are the coset
// k + W_h, and all n = 2k points together are W_{h+1}. Interpolation and
// evaluation on such sets are additive FFTs in the novel polynomial
// basis of LCH14: O(k log k) shard operations instead of the O(k^2) of a
// matrix product, and bit-identical to it — the polynomial through k
// points of degree < k is unique, so any evaluation algorithm yields the
// same bytes (pinned against the Vandermonde oracle in oracle_test.go).
//
// Construction. s_i is the subspace polynomial vanishing on W_i:
//
//	s_0(x) = x,   s_{i+1}(x) = s_i(x)^2 + s_i(v_i)·s_i(x),  v_i = x^i
//
// (s_i is GF(2)-linearized, so s_i(a+b) = s_i(a)+s_i(b)). The normalized
// polynomial is ŝ_i = s_i / s_i(v_i), which satisfies ŝ_i(v_i) = 1 and
// vanishes on W_i. The novel basis is X_j = Π ŝ_i^{j_i} over the binary
// digits j_i of j. A transform over the 2^m points starting at point
// `base` runs m butterfly stages; the butterfly of stage s on the pair
// (u, v) separated by 2^s uses the per-block twiddle t = ŝ_s(b), where b
// is the block's first point:
//
//	FFT  (coeffs → values):  u ^= t·v ; v ^= u
//	IFFT (values → coeffs):  v ^= u   ; u ^= t·v
//
// The recursion offsets differ by exactly ŝ_s(v_s) = 1 between block
// halves, which is what the normalization buys.
type fftPlan struct {
	// tab[s][b] is the split-multiplication table of the stage-s twiddle
	// ŝ_s(b << (s+1)) of a transform on W_{h+1}, for s in [0, h]; nil
	// marks a zero twiddle (the multiply is skipped). Encode's k-point
	// inverse transform on W_h uses the first half of every stage below h.
	tab [][]*gf65536.MulTable16
	// coset[s] = tab[s][k>>(s+1):] for s < h: the schedule of the k-point
	// forward transform on the parity coset k + W_h.
	coset [][]*gf65536.MulTable16
	// deriv[b] is the table of ŝ_b' (see derivative).
	deriv []*gf65536.MulTable16
	// logWalsh is the Walsh–Hadamard transform of the field's log table
	// restricted to W_{h+1}, pre-divided by n (see locatorLogs).
	logWalsh []int64
}

// logModulus is the order of the field's multiplicative group:
// logarithms live in Z/65535.
const logModulus = gf65536.Order - 1

// newFFTPlan builds the twiddle schedule and decode constants for k data
// shards, k a power of two.
func newFFTPlan(k int) *fftPlan {
	h := bits.TrailingZeros(uint(k))
	n := 2 * k
	p := &fftPlan{}

	// Subspace polynomial images s_i(x^b) by the linearized recursion;
	// sHat[i][b] = ŝ_i(x^b), and by linearity ŝ_i(y) is the XOR of the
	// entries at y's set bits.
	var s [16]uint16
	for b := range s {
		s[b] = 1 << b
	}
	sHat := make([][16]uint16, h+1)
	p.deriv = make([]*gf65536.MulTable16, h+1)
	lin := uint16(1) // coefficient of x in s_i: Π_{l<i} s_l(v_l)
	for i := 0; i <= h; i++ {
		si := s[i]
		inv := gf65536.Inv(si) // s_i(v_i) != 0 since v_i is outside W_i
		for b := range s {
			sHat[i][b] = gf65536.Mul(s[b], inv)
		}
		p.deriv[i] = gf65536.TableFor(gf65536.Mul(lin, inv))
		lin = gf65536.Mul(lin, si)
		for b := range s {
			s[b] = gf65536.Add(gf65536.Mul(s[b], s[b]), gf65536.Mul(si, s[b]))
		}
	}

	p.tab = make([][]*gf65536.MulTable16, h+1)
	p.coset = make([][]*gf65536.MulTable16, h)
	for s := 0; s <= h; s++ {
		blocks := n >> (s + 1)
		p.tab[s] = make([]*gf65536.MulTable16, blocks)
		for b := range p.tab[s] {
			var t uint16
			for y := uint(b << (s + 1)); y != 0; y &= y - 1 {
				t ^= sHat[s][bits.TrailingZeros(y)]
			}
			if t != 0 {
				p.tab[s][b] = gf65536.TableFor(t)
			}
		}
		if s < h {
			p.coset[s] = p.tab[s][blocks/2:]
		}
	}

	p.logWalsh = make([]int64, n)
	for i := 1; i < n; i++ {
		p.logWalsh[i] = int64(gf65536.Log(uint16(i)))
	}
	walshHadamard(p.logWalsh)
	nInv := int64(1) << (15 - h) // 1/n in Z/65535: 2^16 = 1 there, and n = 2^(h+1)
	for i, v := range p.logWalsh {
		p.logWalsh[i] = (v%logModulus + logModulus) * nInv % logModulus
	}
	return p
}

// walshHadamard transforms a in place; len(a) is a power of two.
// Applying it twice multiplies by len(a).
func walshHadamard(a []int64) {
	for w := 1; w < len(a); w <<= 1 {
		for i := 0; i < len(a); i += 2 * w {
			for j := i; j < i+w; j++ {
				a[j], a[j+w] = a[j]+a[j+w], a[j]-a[j+w]
			}
		}
	}
}

// locatorLogs takes the indicator of the erased set E (1 on E, 0
// elsewhere, over all n points) and replaces it, for the locator
// L(x) = Π_{j in E} (x - j), by log L(i) at every i outside E and by
// log L'(i) = log Π_{j in E, j != i} (i - j) at every i in E.
//
// Subtraction is XOR, so both are Σ_{j in E} log(i ^ j) with log(0) read
// as 0: the XOR-convolution of the indicator with the log table, which a
// Walsh–Hadamard transform turns into a pointwise product. Sums stay far
// inside int64 (|·| <= n · 65535 · n), so only the result is reduced.
func (p *fftPlan) locatorLogs(loc []int64) {
	walshHadamard(loc)
	for i := range loc {
		loc[i] *= p.logWalsh[i]
	}
	walshHadamard(loc)
	for i, v := range loc {
		loc[i] = (v%logModulus + logModulus) % logModulus
	}
}

// derivative replaces the novel-basis coefficients in sh (all n of them)
// by those of the formal derivative. ŝ_b is linearized, so its
// derivative is the constant ŝ_b' = (coefficient of x in s_b) / s_b(v_b),
// and by the product rule X_j' = Σ_{b in bits(j)} ŝ_b'·X_{j - 2^b}:
// coefficient l of the derivative is Σ_{b not in bits(l)} ŝ_b'·d_{l + 2^b}.
// Step i handles the pairs (l, l + 2^b) with l in [i - 2^b, i), b the
// lowest set bit of i; it reads only entries at or above i and every
// earlier step wrote below i, so the update runs in place.
func (p *fftPlan) derivative(sh [][]byte) {
	for i := 1; i < len(sh); i++ {
		b := bits.TrailingZeros(uint(i))
		w := 1 << b
		for l := i - w; l < i; l++ {
			p.deriv[b].MulAdd(sh[l+w], sh[l])
		}
	}
}

// ifft transforms sh[base..base+m) in place from values on the points
// base..base+m-1 (tabs indexed from point 0 of its schedule) to
// novel-basis coefficients. All shards must be equally sized. When src
// is non-nil the input is read from it instead: shard i is copied from
// src[i] into sh[i] at the recursion leaf, immediately before its first
// butterfly reads it, so the load rides the same cache residency as the
// transform instead of costing a separate whole-codeword sweep; sh is
// then treated as uninitialized.
//
// Both transforms run depth-first over aligned sub-blocks instead of
// stage-by-stage over the whole codeword: a size-m block finishes all
// its log2(m) stages while its shards are still cache-resident, so a
// codeword larger than L2 is swept O(1) times instead of once per
// stage (the stage-order walk made large encodes memory-bound). The
// butterflies within a block commute within a stage and depend only on
// earlier stages of the same block, so the reordering is bit-identical
// to the stage-order schedule.
func ifft(sh, src [][]byte, tabs [][]*gf65536.MulTable16, base, m int) {
	if m == 1 {
		if src != nil {
			copy(sh[base], src[base])
		}
		return
	}
	half := m >> 1
	ifft(sh, src, tabs, base, half)
	ifft(sh, src, tabs, base+half, half)
	s := bits.TrailingZeros(uint(half)) // top stage of this block
	t := tabs[s][base>>(s+1)]
	for i := base; i < base+half; i++ {
		gf65536.InvButterfly(t, sh[i], sh[i+half]) // v ^= u ; u ^= t*v
	}
}

// fft is the inverse of ifft: novel-basis coefficients to values, with
// the stage order reversed — a block's top stage runs first, then its
// halves recurse.
func fft(sh [][]byte, tabs [][]*gf65536.MulTable16, base, m int) {
	if m == 1 {
		return
	}
	half := m >> 1
	s := bits.TrailingZeros(uint(half))
	t := tabs[s][base>>(s+1)]
	for i := base; i < base+half; i++ {
		gf65536.FwdButterfly(t, sh[i], sh[i+half]) // u ^= t*v ; v ^= u
	}
	fft(sh, tabs, base, half)
	fft(sh, tabs, base+half, half)
}
