package experiments

import (
	"fmt"
	"math/rand"

	"pandas/internal/blob"
)

// Confidence reproduces the Section 3 analysis behind the choice of 73
// samples: the false-positive probability of availability sampling as a
// function of the sample count (the hypergeometric upper bound), validated
// by Monte Carlo against the maximal withholding pattern (Fig. 3-right).
// n is the extended matrix width; trials controls the Monte Carlo
// precision (0 selects 20,000). Samples are labelled by sample count and
// carry Values "analytic" and "empirical".
func Confidence(n int, sampleCounts []int, trials int, seed int64) *Result {
	if len(sampleCounts) == 0 {
		sampleCounts = []int{1, 5, 10, 20, 30, 40, 50, 60, 70, 73, 80}
	}
	if trials <= 0 {
		trials = 20000
	}
	res := &Result{
		Title: fmt.Sprintf("Sampling confidence (Section 3), extended width %d\n"+
			"samples for <=1e-9 bound: %d (paper uses 73, bound %.2g)",
			n, blob.SamplesForConfidence(n, 1e-9), blob.FalsePositiveBound(n, 73)),
		Header: []string{"samples", "analytic bound", "empirical miss rate"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range sampleCounts {
		misses := 0
		for trial := 0; trial < trials; trial++ {
			allPresent := true
			seen := make(map[int]bool, s)
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
		point := &Sample{Label: fmt.Sprintf("%d", s), Values: map[string]float64{
			"analytic":  blob.FalsePositiveBound(n, s),
			"empirical": float64(misses) / float64(trials),
		}}
		res.add(point, point.Label,
			fmt.Sprintf("%.3g", point.Values["analytic"]),
			fmt.Sprintf("%.3g", point.Values["empirical"]))
	}
	return res
}
