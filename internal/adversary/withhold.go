package adversary

import (
	"math/rand"

	"pandas/internal/blob"
)

// WithholdPredicate builds the cell predicate a builder attack installs
// via Builder.SetWithholding: it returns true for cells the builder
// refuses to seed. n is the extended matrix width; the seed makes the
// randomized patterns deterministic per run. Returns nil for
// WithholdNone, which SetWithholding treats as "seed honestly".
func (a BuilderAttack) WithholdPredicate(n int, seed int64) func(blob.CellID) bool {
	switch a.Withholding {
	case WithholdNone:
		return nil
	case WithholdMaximal:
		// The strongest attack (Fig. 3-right): withhold the
		// (n/2+1) x (n/2+1) square anchored at (0,0); everything outside
		// it is released, yet no line can reach the n/2 cells erasure
		// decoding needs.
		h := n/2 + 1
		return func(id blob.CellID) bool {
			return int(id.Row) < h && int(id.Col) < h
		}
	case WithholdRandom:
		// Independent per-cell withholding with probability f. Decisions
		// are precomputed into a bitmap so the predicate is pure and every
		// cell's fate is fixed once per run (a cell seeded to one node is
		// never withheld from another).
		return randomPredicate(n, seed, a.WithholdFraction)
	case WithholdRows:
		return linePredicate(n, seed, a.WithholdLines, true)
	case WithholdCols:
		return linePredicate(n, seed, a.WithholdLines, false)
	default:
		return nil
	}
}

// withholdSalt decorrelates withholding draws from sortition and seeding.
const withholdSalt = 0x57495448 // "WITH"

// randomPredicate withholds each cell independently with probability f.
func randomPredicate(n int, seed int64, f float64) func(blob.CellID) bool {
	rng := rand.New(rand.NewSource(seed ^ withholdSalt))
	withheld := make([]bool, n*n)
	for i := range withheld {
		withheld[i] = rng.Float64() < f
	}
	return func(id blob.CellID) bool {
		return withheld[int(id.Row)*n+int(id.Col)]
	}
}

// linePredicate withholds `lines` whole rows (or columns), chosen
// uniformly without replacement. Withholding up to K = n/2 rows is healed
// by column decoding; beyond that the matrix is unrecoverable.
func linePredicate(n int, seed int64, lines int, rows bool) func(blob.CellID) bool {
	if lines > n {
		lines = n
	}
	rng := rand.New(rand.NewSource(seed ^ withholdSalt))
	chosen := make([]bool, n)
	for _, i := range rng.Perm(n)[:lines] {
		chosen[i] = true
	}
	return func(id blob.CellID) bool {
		if rows {
			return chosen[id.Row]
		}
		return chosen[id.Col]
	}
}

// WithheldCount returns how many of the n x n cells a predicate
// withholds; nil counts as zero. Used by tests and for reporting.
func WithheldCount(n int, pred func(blob.CellID) bool) int {
	if pred == nil {
		return 0
	}
	count := 0
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if pred(blob.CellID{Row: uint16(r), Col: uint16(c)}) {
				count++
			}
		}
	}
	return count
}
