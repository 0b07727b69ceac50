// Faults: a Fig. 15-style robustness sweep — how many nodes still sample
// within the 4-second deadline as increasing fractions of the network are
// dead (crashed / free-riding) or missing from peers' views. Also runs a
// data-withholding attack (Fig. 3-right) to show that unavailability is
// systematically detected.
package main

import (
	"fmt"
	"log"

	"pandas/internal/adversary"
	"pandas/internal/core"
	"pandas/internal/experiments"
)

func main() {
	o := experiments.TestOptions()
	o.Nodes = 300
	o.Slots = 1

	for _, kind := range []experiments.FaultKind{experiments.FaultDead, experiments.FaultOutOfView} {
		res, err := experiments.Fig15(o, kind, []float64{0, 0.2, 0.4, 0.6, 0.8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Render())
	}

	// Data withholding: the builder releases everything EXCEPT the
	// maximal non-reconstructable square. Sampling must fail everywhere.
	cluster, err := core.NewCluster(core.ClusterConfig{
		Core: o.Core, N: 200, Seed: 9, LossRate: 0.03,
		Adversary: &adversary.Config{Withhold: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.RunSlot(1)
	if err != nil {
		log.Fatal(err)
	}
	detected := 0
	for _, out := range res.Outcomes {
		if out.Sampling < 0 { // never completed sampling = unavailability detected
			detected++
		}
	}
	fmt.Printf("withholding attack: %d cells withheld, %d/%d nodes detected unavailability (%.1f%%)\n",
		res.Seeding.Withheld, detected, len(res.Outcomes),
		100*float64(detected)/float64(len(res.Outcomes)))
}
