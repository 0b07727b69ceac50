//go:build amd64 && !purego

package gf65536

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestAVX512KernelsMatchScalar pins the assembly kernels against the
// scalar word-parallel kernels across coefficient edge cases, unaligned
// base addresses, block and non-block lengths, and odd tails. It is the
// deterministic companion to the fuzzers (which also exercise the asm
// path, since MulAddBytes dispatches through it when available).
func TestAVX512KernelsMatchScalar(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(0x5eed))
	coeffs := []uint16{2, 3, 0x0a0b, 0x8000, 0xffff, 0x1234, 7}
	lengths := []int{2, 8, 62, 64, 66, 126, 128, 130, 192, 510, 512, 514, 1000, 4096}
	for _, c := range coeffs {
		tab := TableFor(c)
		for _, n := range lengths {
			for _, off := range []int{0, 1, 3} {
				buf := make([]byte, n+off)
				rng.Read(buf)
				src := buf[off:]

				// MulAdd vs scalar reference.
				dst := make([]byte, n)
				rng.Read(dst)
				want := append([]byte(nil), dst...)
				mulAddBytesScalar(c, src, want)
				tab.MulAdd(src, dst)
				if !bytes.Equal(dst, want) {
					t.Fatalf("MulAdd mismatch c=%#x n=%d off=%d", c, n, off)
				}

				// Mul overwrite form.
				dst2 := make([]byte, n)
				want2 := make([]byte, n)
				mulBytesScalar(c, src, want2)
				tab.Mul(src, dst2)
				if !bytes.Equal(dst2, want2) {
					t.Fatalf("Mul mismatch c=%#x n=%d off=%d", c, n, off)
				}

				// MulBytes: nibble tables alone on the 64-byte stride, the
				// split tables for the scalar tail off it.
				rng.Read(dst2)
				MulBytes(c, src, dst2)
				if !bytes.Equal(dst2, want2) {
					t.Fatalf("MulBytes mismatch c=%#x n=%d off=%d", c, n, off)
				}

				// Butterflies vs their two-call formulations.
				u := make([]byte, n)
				v := make([]byte, n)
				rng.Read(u)
				rng.Read(v)
				wu := append([]byte(nil), u...)
				wv := append([]byte(nil), v...)
				mulAddBytesScalar(c, wv, wu) // u ^= c*v
				for i := range wv {
					wv[i] ^= wu[i] // v ^= u
				}
				FwdButterfly(tab, u, v)
				if !bytes.Equal(u, wu) || !bytes.Equal(v, wv) {
					t.Fatalf("FwdButterfly mismatch c=%#x n=%d off=%d", c, n, off)
				}

				rng.Read(u)
				rng.Read(v)
				wu = append(wu[:0], u...)
				wv = append(wv[:0], v...)
				for i := range wv {
					wv[i] ^= wu[i] // v ^= u
				}
				mulAddBytesScalar(c, wv, wu) // u ^= c*v
				InvButterfly(tab, u, v)
				if !bytes.Equal(u, wu) || !bytes.Equal(v, wv) {
					t.Fatalf("InvButterfly mismatch c=%#x n=%d off=%d", c, n, off)
				}
			}
		}
	}
}

// TestMulAddAliased pins the full-aliasing contract (src == dst) on the
// assembly path, matching the scalar kernel's behavior.
func TestMulAddAliased(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(42))
	for _, c := range []uint16{5, 0xbeef} {
		buf := make([]byte, 640)
		rng.Read(buf)
		want := append([]byte(nil), buf...)
		mulAddBytesScalar(c, want, want)
		TableFor(c).MulAdd(buf, buf)
		if !bytes.Equal(buf, want) {
			t.Fatalf("aliased MulAdd mismatch c=%#x", c)
		}
	}
}
