package main

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(1, 5, 1000)
	g2 := NewGenerator(1, 5, 1000)
	for i := 0; i < 10; i++ {
		a, b := g1.NextBatch(), g2.NextBatch()
		if a.Rollup != b.Rollup || a.Kind != b.Kind || !bytes.Equal(a.Data, b.Data) {
			t.Fatal("same seed produced different batches")
		}
	}
}

func TestNextBatchShape(t *testing.T) {
	g := NewGenerator(2, 8, 2000)
	seenKinds := map[RollupKind]bool{}
	for i := 0; i < 200; i++ {
		b := g.NextBatch()
		if len(b.Data) < 32 {
			t.Fatalf("batch %d too small: %d", i, len(b.Data))
		}
		if b.Txs < 1 {
			t.Fatal("batch with no transactions")
		}
		if int(b.Rollup) >= 8 {
			t.Fatalf("rollup id %d out of range", b.Rollup)
		}
		seenKinds[b.Kind] = true
	}
	if !seenKinds[Optimistic] {
		t.Fatal("no optimistic rollups in the mix")
	}
}

func TestFillAndUnpackRoundTrip(t *testing.T) {
	g := NewGenerator(3, 6, 1500)
	payload, packed := g.FillBlob(64 * 1024)
	if len(packed) == 0 {
		t.Fatal("nothing packed")
	}
	if len(payload) > 64*1024 {
		t.Fatalf("payload %d exceeds capacity", len(payload))
	}
	got, err := UnpackBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(packed) {
		t.Fatalf("unpacked %d batches, want %d", len(got), len(packed))
	}
	for i := range got {
		if got[i].Rollup != packed[i].Rollup ||
			got[i].Kind != packed[i].Kind ||
			got[i].Sequence != packed[i].Sequence ||
			got[i].Txs != packed[i].Txs ||
			!bytes.Equal(got[i].Data, packed[i].Data) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	g := NewGenerator(4, 3, 800)
	payload, _ := g.FillBlob(16 * 1024)
	if _, err := UnpackBlob(payload[:3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short payload: %v", err)
	}
	if _, err := UnpackBlob(payload[:len(payload)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestQuickFillUnpack(t *testing.T) {
	f := func(seed int64, rollups, mean uint8) bool {
		g := NewGenerator(seed, int(rollups%10)+1, int(mean)*16+64)
		payload, packed := g.FillBlob(32 * 1024)
		got, err := UnpackBlob(payload)
		if err != nil {
			return false
		}
		return len(got) == len(packed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	g := NewGenerator(5, 4, 1000)
	_, packed := g.FillBlob(32 * 1024)
	th := Summarize(packed)
	if th.Batches != len(packed) || th.Txs == 0 || th.Bytes == 0 {
		t.Fatalf("summary = %+v", th)
	}
}

func BenchmarkFillBlob(b *testing.B) {
	g := NewGenerator(6, 10, 4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.FillBlob(512 * 1024)
	}
}
