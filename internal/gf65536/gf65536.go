// Package gf65536 implements arithmetic over the finite field GF(2^16).
//
// GF(2^8) Reed-Solomon codes cap at 256 shards, but PANDAS extends each
// 256-cell row or column of the blob matrix to 512 cells — 512 shards per
// codeword. GF(2^16) supports up to 65536 shards, comfortably covering the
// Danksharding parameters. Field elements are uint16; byte slices are
// interpreted as sequences of big-endian 16-bit words by the codec layer.
//
// The field is GF(2)[x] / (x^16 + x^12 + x^3 + x + 1), a primitive
// polynomial, so x itself generates the multiplicative group and log/exp
// tables can be filled by repeated doubling.
package gf65536

// Polynomial is the primitive polynomial defining the field,
// x^16 + x^12 + x^3 + x + 1.
const Polynomial = 0x1100B

// Order is the number of field elements.
const Order = 1 << 16

var (
	expTable []uint16 // expTable[i] = x^i, length 2*65535 to skip reductions
	logTable []uint16 // logTable[a] = log_x(a); logTable[0] unused
)

func init() {
	expTable = make([]uint16, 2*65535)
	logTable = make([]uint16, 65536)
	x := 1
	for i := 0; i < 65535; i++ {
		expTable[i] = uint16(x)
		logTable[x] = uint16(i)
		x <<= 1
		if x&0x10000 != 0 {
			x ^= Polynomial
		}
	}
	for i := 65535; i < 2*65535; i++ {
		expTable[i] = expTable[i-65535]
	}
}

// Add returns a + b (XOR). Subtraction is identical.
func Add(a, b uint16) uint16 { return a ^ b }

// Mul returns a * b in GF(2^16).
func Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics.
func Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf65536: inverse of zero")
	}
	return expTable[65535-int(logTable[a])]
}

// Exp returns x^n for n >= 0.
func Exp(n int) uint16 { return expTable[n%65535] }

// Log returns log_x(a). Log(0) panics.
func Log(a uint16) int {
	if a == 0 {
		panic("gf65536: log of zero")
	}
	return int(logTable[a])
}

// MulBytes sets dst = c*src over big-endian uint16 words. The table is
// built on the stack of the call and dropped with it: this is the form
// for a coefficient used once (the decoder's per-erasure-pattern scale
// factors), which TableFor would retain forever. Where the AVX-512 kernel
// covers the whole length (a multiple of 64 bytes) only its nibble
// tables are built, a quarter of the split tables a scalar tail needs.
func MulBytes(c uint16, src, dst []byte) {
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	if n := min(len(src), len(dst)); haveAVX512 && n > 0 && n%64 == 0 {
		bit := bitImages(c)
		var z nibbleTables
		z.fill(&bit)
		mulAVX512(&z, &src[0], &dst[0], n)
		return
	}
	var t MulTable16
	t.fill(c)
	t.Mul(src, dst)
}
