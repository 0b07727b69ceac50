//go:build amd64 && !purego

package gf65536

// AVX-512 kernels (kernels_amd64.s). All four require n to be a positive
// multiple of 64; the Go wrappers in tables.go handle shorter tails with
// the scalar word-parallel loops. The kernels interpret byte slices as
// big-endian 16-bit words, matching the scalar kernels bit for bit
// (pinned by TestAVX512KernelsMatchScalar and the differential fuzzers).

//go:noescape
func muladdAVX512(tab *nibbleTables, src, dst *byte, n int)

//go:noescape
func mulAVX512(tab *nibbleTables, src, dst *byte, n int)

//go:noescape
func fwdBflyAVX512(tab *nibbleTables, u, v *byte, n int)

//go:noescape
func invBflyAVX512(tab *nibbleTables, u, v *byte, n int)

//go:noescape
func xorAVX512(src, dst *byte, n int)

// cpuidex and xgetbv0 live in cpu_amd64.s; no dependency on x/sys/cpu.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// haveAVX512 gates the assembly kernels. It is a variable (not a
// constant) so differential tests can flip it to exercise both paths.
var haveAVX512 = detectAVX512()

// detectAVX512 reports whether the CPU and OS support the AVX-512
// subsets the kernels use: F (zmm), BW (byte/word ops incl. VPSHUFB on
// zmm) and VBMI (VPERMB/VPERMI2B), with the OS saving zmm and opmask
// state (XCR0 bits checked via XGETBV, gated on OSXSAVE).
func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	// SSE(1) | AVX(2) | opmask(5) | ZMM_Hi256(6) | Hi16_ZMM(7)
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0&zmmState != zmmState {
		return false
	}
	_, b7, c7, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	const avx512bw = 1 << 30
	const avx512vbmi = 1 << 1
	return b7&avx512f != 0 && b7&avx512bw != 0 && c7&avx512vbmi != 0
}
