package gf65536

import (
	"bytes"
	"testing"
)

// Differential fuzzing: the split-table kernels must agree with the
// log/exp scalar reference on every coefficient, every slice content,
// odd lengths (trailing byte ignored by the word kernels), and fully
// aliased src/dst.

func FuzzMulAddBytes(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint16(2), []byte{0xff, 0xee, 0x00, 0x00, 0x12, 0x34})
	f.Add(uint16(0xffff), []byte("an odd-length slice spanning multiple 8-byte blocks"))
	f.Fuzz(func(t *testing.T, c uint16, data []byte) {
		dst := make([]byte, len(data))
		for i := range dst {
			dst[i] = byte(i*31 + 7)
		}
		want := append([]byte(nil), dst...)
		got := append([]byte(nil), dst...)
		mulAddBytesScalar(c, data, want)
		MulAddBytes(c, data, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulAddBytes(%#x) diverges from scalar\nsrc  %x\nwant %x\ngot  %x", c, data, want, got)
		}
		// Fully aliased: dst == src. Each 16-bit word is read before its
		// bytes are written, so the result must match the scalar loop.
		aliasWant := append([]byte(nil), data...)
		aliasGot := append([]byte(nil), data...)
		mulAddBytesScalar(c, aliasWant, aliasWant)
		MulAddBytes(c, aliasGot, aliasGot)
		if !bytes.Equal(aliasWant, aliasGot) {
			t.Fatalf("aliased MulAddBytes(%#x) diverges\nwant %x\ngot  %x", c, aliasWant, aliasGot)
		}
	})
}

func FuzzMulBytes(f *testing.F) {
	f.Add(uint16(0), []byte{9, 9})
	f.Add(uint16(3), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(uint16(0x8000), []byte("sixteen-bit word payload x"))
	f.Fuzz(func(t *testing.T, c uint16, data []byte) {
		want := make([]byte, len(data))
		got := make([]byte, len(data))
		// Pre-fill so untouched tail bytes must match too.
		for i := range want {
			want[i] = 0xa5
			got[i] = 0xa5
		}
		mulBytesScalar(c, data, want)
		MulBytes(c, data, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulBytes(%#x) diverges from scalar\nsrc  %x\nwant %x\ngot  %x", c, data, want, got)
		}
	})
}

// FuzzMulAdd8 checks the fused eight-source kernel against eight
// sequential scalar multiply-accumulates.
func FuzzMulAdd8(f *testing.F) {
	f.Add(uint16(2), uint16(3), uint16(4), uint16(5), uint16(6), uint16(7), uint16(8), uint16(9),
		[]byte("a deterministic seed payload long enough for eight even slices!!"))
	f.Add(uint16(0), uint16(1), uint16(0xffff), uint16(0x100), uint16(0x8000), uint16(0x1b), uint16(0), uint16(1),
		[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, c4, c5, c6, c7 uint16, data []byte) {
		q := (len(data) / 8) &^ 1
		var s [8][]byte
		cs := []uint16{c0, c1, c2, c3, c4, c5, c6, c7}
		want := make([]byte, q)
		for i := range s {
			s[i] = data[i*q : (i+1)*q]
			mulAddBytesScalar(cs[i], s[i], want)
		}
		got := make([]byte, q)
		MulAdd8(TableFor(c0), TableFor(c1), TableFor(c2), TableFor(c3),
			TableFor(c4), TableFor(c5), TableFor(c6), TableFor(c7),
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], got)
		if !bytes.Equal(want, got) {
			t.Fatalf("MulAdd8%v diverges\nwant %x\ngot  %x", cs, want, got)
		}
	})
}

// FuzzButterflies checks the fused additive-FFT butterflies (including
// the AVX-512 path on capable machines) against their unfused two-call
// formulations built from the scalar reference, plus the nil-twiddle
// XOR-only forms.
func FuzzButterflies(f *testing.F) {
	f.Add(uint16(2), []byte("butterfly butterfly butterfly butterfly butterfly butterfly fly!"))
	f.Add(uint16(0xffff), []byte{0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, c uint16, data []byte) {
		h := (len(data) / 2) &^ 1
		u0, v0 := data[:h], data[h:2*h]
		tab := TableFor(c)
		if c == 0 || c == 1 {
			tab = TableFor(2) // keep a representative non-trivial table
		}

		// Forward: u ^= c*v ; v ^= u.
		u := append([]byte(nil), u0...)
		v := append([]byte(nil), v0...)
		wu := append([]byte(nil), u0...)
		wv := append([]byte(nil), v0...)
		FwdButterfly(tab, u, v)
		cc := tab.Lo[1] // the table's coefficient: c * 0x0001
		mulAddBytesScalar(cc, wv, wu)
		for i := range wv {
			wv[i] ^= wu[i]
		}
		if !bytes.Equal(u, wu) || !bytes.Equal(v, wv) {
			t.Fatalf("FwdButterfly(%#x) diverges", cc)
		}

		// Inverse: v ^= u ; u ^= c*v.
		u = append(u[:0], u0...)
		v = append(v[:0], v0...)
		copy(wu, u0)
		copy(wv, v0)
		InvButterfly(tab, u, v)
		for i := range wv {
			wv[i] ^= wu[i]
		}
		mulAddBytesScalar(cc, wv, wu)
		if !bytes.Equal(u, wu) || !bytes.Equal(v, wv) {
			t.Fatalf("InvButterfly(%#x) diverges", cc)
		}

		// Nil table: both reduce to v ^= u.
		u = append(u[:0], u0...)
		v = append(v[:0], v0...)
		FwdButterfly(nil, u, v)
		copy(wu, u0)
		copy(wv, v0)
		for i := range wv {
			wv[i] ^= wu[i]
		}
		if !bytes.Equal(u, wu) || !bytes.Equal(v, wv) {
			t.Fatalf("FwdButterfly(nil) diverges")
		}
	})
}

// FuzzTableMatchesMul anchors every table entry reachable from a fuzzed
// coefficient to the scalar field multiplication.
func FuzzTableMatchesMul(f *testing.F) {
	f.Add(uint16(0x1100), uint16(0xb))
	f.Fuzz(func(t *testing.T, c, s uint16) {
		tab := BuildTable(c)
		if got, want := tab.Hi[s>>8]^tab.Lo[s&0xff], Mul(c, s); got != want {
			t.Fatalf("table product %#x != Mul(%#x,%#x)=%#x", got, c, s, want)
		}
		if cached := TableFor(c); *cached != *tab {
			t.Fatalf("TableFor(%#x) differs from BuildTable", c)
		}
	})
}

// MulAddBytes sets dst ^= c*src where the byte slices are interpreted as
// big-endian uint16 words. Both lengths must be equal and even.
// Dispatches to the cached split-table kernel, the form the production
// paths call through TableFor(c).MulAdd.
func MulAddBytes(c uint16, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		AddBytes(src, dst)
		return
	}
	TableFor(c).MulAdd(src, dst)
}

// mulAddBytesScalar is the log/exp-table reference implementation of
// MulAddBytes, kept for differential fuzzing of the split-table kernel.
func mulAddBytesScalar(c uint16, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := int(logTable[c])
	for i := 0; i+1 < len(src); i += 2 {
		s := uint16(src[i])<<8 | uint16(src[i+1])
		if s == 0 {
			continue
		}
		p := expTable[logC+int(logTable[s])]
		dst[i] ^= byte(p >> 8)
		dst[i+1] ^= byte(p)
	}
}

// mulBytesScalar is the log/exp-table reference implementation of
// MulBytes, kept for differential fuzzing of the split-table kernel.
func mulBytesScalar(c uint16, src, dst []byte) {
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	logC := int(logTable[c])
	for i := 0; i+1 < len(src); i += 2 {
		s := uint16(src[i])<<8 | uint16(src[i+1])
		if s == 0 {
			dst[i], dst[i+1] = 0, 0
			continue
		}
		p := expTable[logC+int(logTable[s])]
		dst[i] = byte(p >> 8)
		dst[i+1] = byte(p)
	}
}
