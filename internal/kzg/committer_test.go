package kzg

import (
	"sync"
	"testing"

	"pandas/internal/blob"
)

func hashAllRows(cm *Committer, e *blob.Extended) {
	cb := e.Params().CellBytes
	for r := 0; r < e.N(); r++ {
		cm.HashRow(r, e.RowBytes(r), cb)
	}
}

// TestCommitterMatchesCommit pins the streaming Committer against the
// one-shot Commit and ProveAll forms: same commitment, same proofs, for
// every prover worker count, and across a Reset/reuse cycle.
func TestCommitterMatchesCommit(t *testing.T) {
	e := makeExtended(t, 21)
	n := e.N()
	wantC := Commit(e)
	wantP := ProveAll(e, wantC)

	cm := NewCommitter(n)
	for cycle := 0; cycle < 2; cycle++ { // second cycle exercises Reset reuse
		cm.Reset(n)
		hashAllRows(cm, e)
		gotC := cm.Root()
		if gotC != wantC {
			t.Fatalf("cycle %d: Committer root differs from Commit", cycle)
		}
		for _, workers := range []int{0, 1, 2, 3, 8} {
			got := make([]Proof, n*n)
			var mu sync.Mutex
			done := make(map[int]int)
			cm.ProveAll(gotC, got, workers, func(r int) {
				mu.Lock()
				done[r]++
				mu.Unlock()
			})
			for i := range got {
				if got[i] != wantP[i] {
					t.Fatalf("cycle %d workers=%d: proof %d differs from ProveAll", cycle, workers, i)
				}
			}
			if len(done) != n {
				t.Fatalf("workers=%d: rowDone fired for %d of %d rows", workers, len(done), n)
			}
			for r, c := range done {
				if c != 1 {
					t.Fatalf("workers=%d: rowDone fired %d times for row %d", workers, c, r)
				}
			}
		}
	}
}

// TestCommitterRootStable pins that Root does not consume the row
// digests (it folds on scratch), so it can be recomputed.
func TestCommitterRootStable(t *testing.T) {
	e := makeExtended(t, 22)
	cm := NewCommitter(e.N())
	hashAllRows(cm, e)
	if cm.Root() != cm.Root() {
		t.Fatal("repeated Root calls disagree")
	}
}

// TestProveRowSteadyZeroAllocs holds the steady-state prover inner loop
// — one row of proofs from pre-computed digests — to zero allocations.
func TestProveRowSteadyZeroAllocs(t *testing.T) {
	e := makeExtended(t, 23)
	n := e.N()
	cm := NewCommitter(n)
	hashAllRows(cm, e)
	c := cm.Root()
	out := make([]Proof, n*n)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	row := 0
	if a := testing.AllocsPerRun(100, func() {
		cm.proveRow(s, c, row%n, out)
		row++
	}); a != 0 {
		t.Fatalf("proveRow allocates %.1f per row, want 0", a)
	}
}

// BenchmarkProveRowSteady measures the steady-state prover inner loop;
// TestProveRowSteadyZeroAllocs holds it to zero allocations.
func BenchmarkProveRowSteady(b *testing.B) {
	e := makeExtended(b, 23)
	n := e.N()
	cm := NewCommitter(n)
	hashAllRows(cm, e)
	c := cm.Root()
	out := make([]Proof, n*n)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.proveRow(s, c, i%n, out)
	}
}

// BenchmarkCommitterSlot measures the full paper-scale commit+prove
// path the builder runs per slot (512x512 cells of 512 B), reusing the
// Committer as the builder does.
func BenchmarkCommitterSlot(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale benchmark")
	}
	p := blob.DefaultParams()
	data := make([]byte, p.BlobBytes())
	for i := range data {
		data[i] = byte(i * 2654435761)
	}
	e, err := blob.ExtendData(p, data, blob.ExtendOptions{})
	if err != nil {
		b.Fatal(err)
	}
	n := e.N()
	cm := NewCommitter(n)
	out := make([]Proof, n*n)
	b.SetBytes(int64(n * n * p.CellBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Reset(n)
		hashAllRows(cm, e)
		cm.ProveAll(cm.Root(), out, 1, nil)
	}
}
