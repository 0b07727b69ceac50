package blob_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pandas/internal/blob"
)

// withheldCount returns how many of the n x n cells blob.Withheld
// withholds.
func withheldCount(n int) int {
	count := 0
	for idx := 0; idx < n*n; idx++ {
		if blob.Withheld(n, blob.CellIDFromIndex(idx, n)) {
			count++
		}
	}
	return count
}

// extended erasure-extends a blob of seeded random data at K = k.
func extended(t *testing.T, k int) *blob.Extended {
	t.Helper()
	p := blob.Params{K: k, CellBytes: 16}
	data := make([]byte, p.BlobBytes())
	rand.New(rand.NewSource(int64(k))).Read(data)
	e, err := blob.ExtendData(p, data, blob.ExtendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// peel starts from the cells of e that present selects and decodes, with
// the real codec, every line that holds at least K but not all of its
// cells, until no line changes. It reports whether that recovered every
// cell of e, byte for byte.
func peel(t *testing.T, e *blob.Extended, present func(blob.CellID) bool) bool {
	t.Helper()
	p := e.Params()
	n := p.N()
	have := make([][]byte, n*n)
	for idx := range have {
		if id := blob.CellIDFromIndex(idx, n); present(id) {
			have[idx] = e.Cell(id)
		}
	}
	for progress := true; progress; {
		progress = false
		for _, kind := range []blob.LineKind{blob.Row, blob.Col} {
			for i := 0; i < n; i++ {
				ids := blob.Line{Kind: kind, Index: uint16(i)}.Cells(n)
				shards := make([][]byte, n)
				count := 0
				for j, id := range ids {
					if shards[j] = have[id.Index(n)]; shards[j] != nil {
						count++
					}
				}
				if count < p.K || count == n {
					continue
				}
				if err := blob.ReconstructLine(p, shards); err != nil {
					t.Fatal(err)
				}
				for j, id := range ids {
					have[id.Index(n)] = shards[j]
				}
				progress = true
			}
		}
	}
	for idx, cell := range have {
		if !bytes.Equal(cell, e.Cell(blob.CellIDFromIndex(idx, n))) {
			return false
		}
	}
	return true
}

// TestMinimalReconstructable: the base quadrant alone recovers the whole
// matrix (Fig. 3-left), and without any one of its cells it does not.
func TestMinimalReconstructable(t *testing.T) {
	for _, k := range []int{4, 8, 32} {
		e := extended(t, k)
		quadrant := func(id blob.CellID) bool { return int(id.Row) < k && int(id.Col) < k }
		if !peel(t, e, quadrant) {
			t.Fatalf("K=%d: the base quadrant does not reconstruct", k)
		}
		if peel(t, e, func(id blob.CellID) bool { return quadrant(id) && id != (blob.CellID{}) }) {
			t.Fatalf("K=%d: the quadrant minus one cell reconstructs", k)
		}
	}
}

// TestMaximalWithholdingNotReconstructable: everything outside the
// maximal withheld square does not recover the matrix (Fig. 3-right), and
// one withheld cell more does.
func TestMaximalWithholdingNotReconstructable(t *testing.T) {
	for _, k := range []int{4, 8, 32} {
		e := extended(t, k)
		n := 2 * k
		if peel(t, e, func(id blob.CellID) bool { return !blob.Withheld(n, id) }) {
			t.Fatalf("K=%d: maximal withholding is reconstructable", k)
		}
		// One withheld cell back tips it over: its row becomes decodable,
		// then decoding cascades.
		if !peel(t, e, func(id blob.CellID) bool { return !blob.Withheld(n, id) || id == (blob.CellID{}) }) {
			t.Fatalf("K=%d: one extra cell should enable reconstruction", k)
		}
	}
}

// TestWithheldIsMaximalSquare pins blob.Withheld to exactly the
// (n/2+1) x (n/2+1) square at (0, 0), whose size is WithheldCells.
func TestWithheldIsMaximalSquare(t *testing.T) {
	for _, n := range []int{2, 8, 32, 64} {
		h := n/2 + 1
		for idx := 0; idx < n*n; idx++ {
			id := blob.CellIDFromIndex(idx, n)
			if want := int(id.Row) < h && int(id.Col) < h; blob.Withheld(n, id) != want {
				t.Fatalf("n=%d cell %v: withheld=%v, want %v", n, id, !want, want)
			}
		}
		if got, want := withheldCount(n), blob.WithheldCells(n); got != want {
			t.Fatalf("n=%d: %d cells withheld, want %d", n, got, want)
		}
	}
}

func TestFalsePositiveBoundPaperNumbers(t *testing.T) {
	// Paper: with n=512 and s=73, the false-positive bound is below 1e-9.
	got := blob.FalsePositiveBound(512, 73)
	if got >= 1e-9 {
		t.Fatalf("FalsePositiveBound(512, 73) = %g, want < 1e-9", got)
	}
	// The exact threshold of the hypergeometric bound is 72; the paper
	// community's 73 keeps one sample of slack. 71 must NOT reach 1e-9.
	if prev := blob.FalsePositiveBound(512, 71); prev < 1e-9 {
		t.Fatalf("FalsePositiveBound(512, 71) = %g; unexpectedly strong", prev)
	}
}

func TestSamplesForConfidence(t *testing.T) {
	// The exact bound crosses 1e-9 at s=72; the paper rounds up to 73.
	if got := blob.SamplesForConfidence(512, 1e-9); got != 72 {
		t.Fatalf("SamplesForConfidence(512, 1e-9) = %d, want 72", got)
	}
	if got := blob.SamplesForConfidence(512, 1.0); got != 1 {
		t.Fatalf("SamplesForConfidence(512, 1.0) = %d, want 1", got)
	}
}

func TestFalsePositiveBoundMonotone(t *testing.T) {
	prev := 1.0
	for s := 1; s <= 100; s++ {
		cur := blob.FalsePositiveBound(512, s)
		if cur > prev {
			t.Fatalf("bound increased at s=%d", s)
		}
		prev = cur
	}
}

func TestWithheldCells(t *testing.T) {
	if got := blob.WithheldCells(512); got != 257*257 {
		t.Fatalf("WithheldCells(512) = %d, want %d", got, 257*257)
	}
}

func TestMonteCarloSamplingDetectsWithholding(t *testing.T) {
	// Sample s random cells against the maximal withholding pattern many
	// times; the empirical detection rate must be high and consistent
	// with the analytic bound (which is a miss-probability upper bound).
	const n, s, trials = 64, 30, 2000
	rng := rand.New(rand.NewSource(42))
	misses := 0
	for trial := 0; trial < trials; trial++ {
		allPresent := true
		seen := map[int]bool{}
		for len(seen) < s {
			idx := rng.Intn(n * n)
			if seen[idx] {
				continue
			}
			seen[idx] = true
			if blob.Withheld(n, blob.CellIDFromIndex(idx, n)) {
				allPresent = false
				break
			}
		}
		if allPresent {
			misses++
		}
	}
	bound := blob.FalsePositiveBound(n, s)
	rate := float64(misses) / trials
	// Allow generous slack over the analytic bound for Monte Carlo noise.
	if rate > bound*3+0.01 {
		t.Fatalf("empirical miss rate %g far above bound %g", rate, bound)
	}
}
