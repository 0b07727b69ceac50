// Slot simulation: a Fig. 9-style run — phase-time CDFs for the three
// builder seeding policies (minimal / single / redundant) on a simulated
// planetary network, printed as plottable series.
package main

import (
	"fmt"
	"log"

	"pandas/internal/experiments"
)

func main() {
	o := experiments.TestOptions()
	o.Nodes = 300
	o.Slots = 2

	res, err := experiments.Fig9(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())

	// CDF series for external plotting (gnuplot/matplotlib): fraction of
	// nodes that completed sampling by time t, per policy.
	fmt.Println("sampling CDF series (ms, fraction):")
	for _, s := range res.Samples {
		fmt.Printf("# policy=%s\n", s.Label)
		for _, pt := range s.Sampling.CDF(20) {
			fmt.Printf("%d %.3f\n", pt.Value.Milliseconds(), pt.Fraction)
		}
	}
}
