//go:build !amd64 || purego

package gf65536

// Non-amd64 (or purego) builds fall back to the scalar word-parallel
// kernels; the stubs below are never reached because haveAVX512 is
// false.

const haveAVX512 = false

func muladdAVX512(tab *nibbleTables, src, dst *byte, n int) {
	panic("gf65536: AVX-512 kernel called on unsupported platform")
}

func mulAVX512(tab *nibbleTables, src, dst *byte, n int) {
	panic("gf65536: AVX-512 kernel called on unsupported platform")
}

func fwdBflyAVX512(tab *nibbleTables, u, v *byte, n int) {
	panic("gf65536: AVX-512 kernel called on unsupported platform")
}

func invBflyAVX512(tab *nibbleTables, u, v *byte, n int) {
	panic("gf65536: AVX-512 kernel called on unsupported platform")
}

func xorAVX512(src, dst *byte, n int) {
	panic("gf65536: AVX-512 kernel called on unsupported platform")
}
