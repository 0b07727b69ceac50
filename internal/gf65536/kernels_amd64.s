//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 GF(2^16) kernels over big-endian 16-bit words.
//
// Strategy (VPSHUFB nibble tables, extended to 16-bit symbols): split
// each input word into four nibbles; by linearity the product c*w is
// the XOR of four 16-entry table lookups. VPSHUFB performs 64 such
// lookups at once, but only within 128-bit lanes, so the input block is
// first deinterleaved with VPERMB into [32 low bytes | 32 high bytes]
// and the four per-lane tables of nibbleTables are arranged to match
// that layout (see tables.go). The two partial products (low half of
// the vector = contribution of the low input bytes, high half = high
// input bytes) are folded with a 256-bit half swap, and the product's
// high/low bytes are re-interleaved into big-endian order with VPERMI2B.
//
// Fixed registers per call: Z1 = deinterleave index, Z2 = 0x0f mask,
// Z3 = interleave index, Z10..Z13 = the four shuffle tables (loaded
// once from tab, a nibbleTables — byte offsets 0..192, keep in sync with
// the type). GFPRODUCT clobbers Z4..Z9.
//
// n must be a positive multiple of 64 (Go wrappers handle tails).

// GFPRODUCT computes the GF(2^16) product of the 32 big-endian words in
// VSRC by the table coefficient, leaving the result (same byte order)
// in VOUT. VSRC and VOUT must be distinct from Z4..Z9 and each other.
// Steps: deinterleave into [lo bytes | hi bytes] (VPERMB); split even
// and odd nibbles; four VPSHUFB lookups XORed into unfolded low/high
// product bytes; fold the 256-bit halves; re-interleave the high and
// low product bytes into big-endian word order (VPERMI2B consumes the
// index register, hence the VMOVDQA64 copy).
#define GFPRODUCT(VSRC, VOUT) \
	VPERMB     VSRC, Z1, Z4       \
	VPANDQ     Z2, Z4, Z5         \
	VPSRLW     $4, Z4, Z6         \
	VPANDQ     Z2, Z6, Z6         \
	VPSHUFB    Z5, Z10, Z7        \
	VPSHUFB    Z6, Z11, Z9        \
	VPXORQ     Z9, Z7, Z7         \
	VPSHUFB    Z5, Z12, Z8        \
	VPSHUFB    Z6, Z13, Z9        \
	VPXORQ     Z9, Z8, Z8         \
	VSHUFI64X2 $0x4E, Z7, Z7, Z9  \
	VPXORQ     Z9, Z7, Z7         \
	VSHUFI64X2 $0x4E, Z8, Z8, Z9  \
	VPXORQ     Z9, Z8, Z8         \
	VMOVDQA64  Z3, VOUT           \
	VPERMI2B   Z7, Z8, VOUT

#define KERNELHEAD \
	MOVQ      tab+0(FP), AX        \
	VMOVDQU64 ·gfDeintIdx(SB), Z1  \
	VMOVDQU64 ·gfNibMask(SB), Z2   \
	VMOVDQU64 ·gfIntIdx(SB), Z3    \
	VMOVDQU64 (AX), Z10            \
	VMOVDQU64 64(AX), Z11          \
	VMOVDQU64 128(AX), Z12         \
	VMOVDQU64 192(AX), Z13

// func muladdAVX512(tab *nibbleTables, src, dst *byte, n int)
// dst ^= c*src
TEXT ·muladdAVX512(SB), NOSPLIT, $0-32
	KERNELHEAD
	MOVQ src+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX

muladd_loop:
	VMOVDQU64 (SI), Z0
	GFPRODUCT(Z0, Z14)
	VMOVDQU64 (DI), Z15
	VPXORQ    Z14, Z15, Z15
	VMOVDQU64 Z15, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, CX
	JNZ       muladd_loop
	VZEROUPPER
	RET

// func mulAVX512(tab *nibbleTables, src, dst *byte, n int)
// dst = c*src
TEXT ·mulAVX512(SB), NOSPLIT, $0-32
	KERNELHEAD
	MOVQ src+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), CX

mul_loop:
	VMOVDQU64 (SI), Z0
	GFPRODUCT(Z0, Z14)
	VMOVDQU64 Z14, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, CX
	JNZ       mul_loop
	VZEROUPPER
	RET

// func fwdBflyAVX512(tab *nibbleTables, u, v *byte, n int)
// u ^= c*v ; v ^= u   (forward additive-FFT butterfly, fused)
TEXT ·fwdBflyAVX512(SB), NOSPLIT, $0-32
	KERNELHEAD
	MOVQ u+8(FP), DI
	MOVQ v+16(FP), SI
	MOVQ n+24(FP), CX

fwd_loop:
	VMOVDQU64 (SI), Z0
	GFPRODUCT(Z0, Z14)
	VMOVDQU64 (DI), Z15
	VPXORQ    Z14, Z15, Z15       // u' = u ^ c*v
	VMOVDQU64 Z15, (DI)
	VPXORQ    Z15, Z0, Z0         // v' = v ^ u'
	VMOVDQU64 Z0, (SI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, CX
	JNZ       fwd_loop
	VZEROUPPER
	RET

// func invBflyAVX512(tab *nibbleTables, u, v *byte, n int)
// v ^= u ; u ^= c*v   (inverse additive-FFT butterfly, fused)
TEXT ·invBflyAVX512(SB), NOSPLIT, $0-32
	KERNELHEAD
	MOVQ u+8(FP), DI
	MOVQ v+16(FP), SI
	MOVQ n+24(FP), CX

inv_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DI), Z15
	VPXORQ    Z15, Z0, Z0         // v' = v ^ u
	VMOVDQU64 Z0, (SI)
	GFPRODUCT(Z0, Z14)
	VPXORQ    Z14, Z15, Z15       // u' = u ^ c*v'
	VMOVDQU64 Z15, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, CX
	JNZ       inv_loop
	VZEROUPPER
	RET

// func xorAVX512(src, dst *byte, n int)
// dst ^= src (no table; the c==1 / zero-twiddle fast path)
TEXT ·xorAVX512(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX

xor_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DI), Z1
	VPXORQ    Z0, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $64, CX
	JNZ       xor_loop
	VZEROUPPER
	RET

// Deinterleave index for VPERMB: output byte i<32 takes input byte
// 2i+1 (the low byte of big-endian word i); byte 32+i takes input byte
// 2i (the high byte).
DATA ·gfDeintIdx+0(SB)/8, $0x0F0D0B0907050301
DATA ·gfDeintIdx+8(SB)/8, $0x1F1D1B1917151311
DATA ·gfDeintIdx+16(SB)/8, $0x2F2D2B2927252321
DATA ·gfDeintIdx+24(SB)/8, $0x3F3D3B3937353331
DATA ·gfDeintIdx+32(SB)/8, $0x0E0C0A0806040200
DATA ·gfDeintIdx+40(SB)/8, $0x1E1C1A1816141210
DATA ·gfDeintIdx+48(SB)/8, $0x2E2C2A2826242220
DATA ·gfDeintIdx+56(SB)/8, $0x3E3C3A3836343230
GLOBL ·gfDeintIdx(SB), RODATA|NOPTR, $64

// Interleave index for VPERMI2B: output byte 2i = byte i of the first
// table (product high bytes, index < 64), byte 2i+1 = byte i of the
// second table (product low bytes, index 64+i).
DATA ·gfIntIdx+0(SB)/8, $0x4303420241014000
DATA ·gfIntIdx+8(SB)/8, $0x4707460645054404
DATA ·gfIntIdx+16(SB)/8, $0x4B0B4A0A49094808
DATA ·gfIntIdx+24(SB)/8, $0x4F0F4E0E4D0D4C0C
DATA ·gfIntIdx+32(SB)/8, $0x5313521251115010
DATA ·gfIntIdx+40(SB)/8, $0x5717561655155414
DATA ·gfIntIdx+48(SB)/8, $0x5B1B5A1A59195818
DATA ·gfIntIdx+56(SB)/8, $0x5F1F5E1E5D1D5C1C
GLOBL ·gfIntIdx(SB), RODATA|NOPTR, $64

DATA ·gfNibMask+0(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA ·gfNibMask+8(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA ·gfNibMask+16(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA ·gfNibMask+24(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA ·gfNibMask+32(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA ·gfNibMask+40(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA ·gfNibMask+48(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA ·gfNibMask+56(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL ·gfNibMask(SB), RODATA|NOPTR, $64
