package gf65536

import (
	"math/rand"
	"testing"
)

func benchSlices(n int) (src, dst []byte) {
	rng := rand.New(rand.NewSource(1))
	src, dst = make([]byte, n), make([]byte, n)
	rng.Read(src)
	rng.Read(dst)
	return src, dst
}

// BenchmarkMulAddBytesScalar measures the log/exp reference kernel.
func BenchmarkMulAddBytesScalar(b *testing.B) {
	src, dst := benchSlices(512)
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		mulAddBytesScalar(0x1234, src, dst)
	}
}

// BenchmarkMulAddBytesTable measures the split-table kernel.
func BenchmarkMulAddBytesTable(b *testing.B) {
	src, dst := benchSlices(512)
	t := TableFor(0x1234)
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		t.MulAdd(src, dst)
	}
}

// BenchmarkAddBytes measures the wide-XOR c==1 path.
func BenchmarkAddBytes(b *testing.B) {
	src, dst := benchSlices(512)
	b.SetBytes(512)
	for i := 0; i < b.N; i++ {
		AddBytes(src, dst)
	}
}
