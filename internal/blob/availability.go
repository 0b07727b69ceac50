package blob

// Availability mathematics from Section 3 of the paper.
//
// The maximal amount of extended data an adversary can release while still
// preventing reconstruction is the full n x n matrix minus an
// (n/2+1) x (n/2+1) square: with n/2+1 rows and columns each missing
// n/2+1 cells, no line reaches the n/2 cells needed for erasure decoding.
// A sampling node that draws s random distinct cells misses that withheld
// square with probability at most prod_{i=0}^{s-1} (1 - w/(n^2 - i)) where
// w = (n/2+1)^2. With the paper's parameters (n = 512, s = 73) the bound
// is below 1e-9.

// Withheld reports whether cell id of an n x n extended matrix lies in the
// maximal withheld region: the (n/2+1) x (n/2+1) square anchored at
// (0, 0). Everything outside it is released, yet no line can reach the
// n/2 cells erasure decoding needs (Fig. 3-right).
func Withheld(n int, id CellID) bool {
	h := n/2 + 1
	return int(id.Row) < h && int(id.Col) < h
}

// WithheldCells returns w, the size of the maximal non-reconstructable
// withheld region for extended width n: (n/2+1)^2.
func WithheldCells(n int) int {
	h := n/2 + 1
	return h * h
}

// FalsePositiveBound returns the upper bound on the probability that s
// random distinct samples all land outside a maximal withheld region of an
// n x n extended matrix — i.e. the probability of wrongly concluding the
// data is available.
func FalsePositiveBound(n, s int) float64 {
	w := float64(WithheldCells(n))
	total := float64(n * n)
	p := 1.0
	for i := 0; i < s; i++ {
		p *= 1 - w/(total-float64(i))
		if p == 0 {
			return 0
		}
	}
	return p
}

// SamplesForConfidence returns the minimal number of samples s such that
// FalsePositiveBound(n, s) <= target. It caps the search at n*n.
func SamplesForConfidence(n int, target float64) int {
	w := float64(WithheldCells(n))
	total := float64(n * n)
	p := 1.0
	for s := 1; s <= n*n; s++ {
		p *= 1 - w/(total-float64(s-1))
		if p <= target {
			return s
		}
	}
	return n * n
}
