package blob

import "testing"

// BenchmarkExtend32MB measures the full 2D extension at the paper
// geometry: K=256, 512 B cells — a 32 MB base blob extended to the
// 512x512 (128 MB) matrix. This is the builder's seeding-critical path
// (Fig. 9). Throughput is reported relative to the base blob size.
func BenchmarkExtend32MB(b *testing.B) {
	p := DefaultParams()
	data := randData(p.BlobBytes(), 1)
	b.SetBytes(int64(p.BlobBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtendData(p, data, ExtendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendTest measures extension at the scaled-down test
// geometry (16x16, 64 B cells) used throughout the unit tests.
func BenchmarkExtendTest(b *testing.B) {
	p := TestParams()
	data := randData(p.BlobBytes(), 1)
	b.SetBytes(int64(p.BlobBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtendData(p, data, ExtendOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstructLine measures single-line recovery at paper
// geometry from exactly K of 2K cells, the consolidation hot path on
// custody nodes. The loss pattern shifts every iteration; the decoder
// keeps no per-pattern state, so there is no warm case to separate.
func BenchmarkReconstructLine(b *testing.B) {
	p := DefaultParams()
	_, ext := randExtended(b, p, 1)
	cells := ext.Line(Line{Kind: Row, Index: 3})
	n := p.N()
	shards := make([][]byte, n)
	b.SetBytes(int64(n * p.CellBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(shards)
		// Interleave data and parity positions so reconstruction does
		// real decode work on both halves.
		for j := 0; j < p.K; j++ {
			pos := (j*2 + i) % n
			shards[pos] = cells[pos]
		}
		if err := ReconstructLine(p, shards); err != nil {
			b.Fatal(err)
		}
	}
}
