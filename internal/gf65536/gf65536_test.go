package gf65536

import (
	"testing"
	"testing/quick"
)

func TestGeneratorIsPrimitive(t *testing.T) {
	// x must generate all 65535 non-zero elements; verify the table walk
	// returned to 1 exactly at the end.
	if Exp(0) != 1 {
		t.Fatalf("Exp(0) = %d", Exp(0))
	}
	if Exp(65535) != 1 {
		t.Fatalf("Exp(65535) = %d, want 1 (x not primitive?)", Exp(65535))
	}
	for i := 1; i < 65535; i++ {
		if expTable[i] == 1 {
			t.Fatalf("x^%d = 1: generator has short order", i)
		}
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint16) bool {
		return Mul(a, b) == Mul(b, a) &&
			Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint16) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInvRoundTrip(t *testing.T) {
	f := func(a uint16) bool {
		if a == 0 {
			return true
		}
		return Mul(a, Inv(a)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulByX(t *testing.T) {
	// Multiplying by 2 (= x) is a shift with conditional reduction.
	for _, a := range []uint16{1, 0x8000, 0xFFFF, 0x1234} {
		want := uint16(0)
		wide := int(a) << 1
		if wide&0x10000 != 0 {
			wide ^= Polynomial
		}
		want = uint16(wide)
		if got := Mul(a, 2); got != want {
			t.Fatalf("Mul(%#x, 2) = %#x, want %#x", a, got, want)
		}
	}
}

func TestPowFermat(t *testing.T) {
	// a^65535 == 1 for all non-zero a.
	for _, a := range []uint16{1, 2, 3, 0xABCD, 0xFFFF} {
		if got := Pow(a, 65535); got != 1 {
			t.Fatalf("Pow(%#x, 65535) = %#x, want 1", a, got)
		}
	}
	if Pow(0, 0) != 1 || Pow(0, 3) != 0 || Pow(5, 0) != 1 {
		t.Fatal("Pow edge cases wrong")
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	for _, a := range []uint16{0, 1, 2, 999, 0xFFFF} {
		acc := uint16(1)
		for n := 0; n < 10; n++ {
			if got := Pow(a, n); got != acc {
				t.Fatalf("Pow(%#x, %d) = %#x, want %#x", a, n, got, acc)
			}
			acc = Mul(acc, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Inv(0)
}

func TestMulAddBytesMatchesWordwise(t *testing.T) {
	src := []byte{0x12, 0x34, 0x00, 0x00, 0xFF, 0xFF, 0xAB, 0xCD}
	dst := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	wantWords := make([]uint16, 4)
	for i := 0; i < 4; i++ {
		s := uint16(src[2*i])<<8 | uint16(src[2*i+1])
		d := uint16(dst[2*i])<<8 | uint16(dst[2*i+1])
		wantWords[i] = d ^ Mul(0x0102, s)
	}
	MulAddBytes(0x0102, src, dst)
	for i := 0; i < 4; i++ {
		got := uint16(dst[2*i])<<8 | uint16(dst[2*i+1])
		if got != wantWords[i] {
			t.Fatalf("word %d: got %#x want %#x", i, got, wantWords[i])
		}
	}
}

func TestMulBytesIdentityAndZero(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dst := make([]byte, 4)
	MulBytes(1, src, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatal("MulBytes(1) is not copy")
		}
	}
	MulBytes(0, src, dst)
	for _, d := range dst {
		if d != 0 {
			t.Fatal("MulBytes(0) did not zero dst")
		}
	}
}

func BenchmarkMulAddBytes(b *testing.B) {
	src := make([]byte, 512)
	dst := make([]byte, 512)
	for i := range src {
		src[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddBytes(uint16(i)|1, src, dst)
	}
}

// Pow returns a^n, with a^0 == 1 for any a.
func Pow(a uint16, n int) uint16 {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(logTable[a]) % 65535 * (n % 65535)) % 65535
	if l < 0 {
		l += 65535
	}
	return expTable[l]
}
