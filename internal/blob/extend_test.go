package blob

import (
	"bytes"
	"runtime"
	"testing"
)

// TestExtendParallelMatchesSequential pins the determinism contract of
// the worker pool: parallel extension must be bit-identical to the
// single-goroutine path GOMAXPROCS 1 takes, for any worker count.
// Codewords are independent and write disjoint cells, so scheduling order
// must not leak into the output.
func TestExtendParallelMatchesSequential(t *testing.T) {
	p := testParams()
	data := randData(p.BlobBytes(), 7)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := ExtendData(p, data, ExtendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		runtime.GOMAXPROCS(workers)
		par, err := ExtendData(p, data, ExtendOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(par.backing, seq.backing) {
			t.Fatalf("workers=%d: matrix differs from sequential extension", workers)
		}
	}
}

// TestExtendReuse pins arena recycling: extending different data into a
// reused matrix must be bit-identical to a fresh extension (no stale
// bytes survive, including in the padding region), and must actually
// reuse the backing storage.
func TestExtendReuse(t *testing.T) {
	p := testParams()
	long := randData(p.BlobBytes(), 10)
	short := randData(p.BlobBytes()/2, 11)

	reused, err := ExtendData(p, long, ExtendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prevBase := &reused.backing[0]
	reused, err = ExtendData(p, short, ExtendOptions{Reuse: reused})
	if err != nil {
		t.Fatal(err)
	}
	if &reused.backing[0] != prevBase {
		t.Fatal("reuse allocated a fresh backing")
	}
	fresh, err := ExtendData(p, short, ExtendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reused.backing, fresh.backing) {
		t.Fatal("reused extension differs from fresh extension")
	}
}

// TestExtendRowPhaseHook checks the OnRowPhase contract: when the hook
// fires, rows 0..K-1 (data + row parity) are final and readable, and
// the hook observes exactly the same bytes a post-extension reader does.
func TestExtendRowPhaseHook(t *testing.T) {
	p := testParams()
	data := randData(p.BlobBytes(), 12)
	var snap []byte
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e, err := ExtendData(p, data, ExtendOptions{
		OnRowPhase: func(e *Extended) {
			for r := 0; r < p.K; r++ {
				snap = append(snap, e.RowBytes(r)...)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for r := 0; r < p.K; r++ {
		want = append(want, e.RowBytes(r)...)
	}
	if !bytes.Equal(snap, want) {
		t.Fatal("row-phase snapshot differs from final top half")
	}
}
