// Quickstart: simulate one PANDAS slot on a 200-node network and print
// what every downstream user cares about — did every node finish data
// availability sampling inside Ethereum's 4-second attestation window?
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
)

func main() {
	// A scaled-down geometry keeps the demo instant; swap in
	// core.DefaultConfig() for the full 512x512 Danksharding matrix.
	cfg := core.TestConfig()

	cluster, err := core.NewCluster(core.ClusterConfig{
		Core:     cfg,
		N:        200,
		Seed:     1,
		LossRate: 0.03, // the paper's observed UDP loss
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := cluster.RunSlot(1)
	if err != nil {
		log.Fatal(err)
	}

	var sampling []time.Duration
	for _, o := range res.Outcomes {
		if o.Sampling >= 0 {
			sampling = append(sampling, o.Sampling)
		}
	}
	sort.Slice(sampling, func(i, j int) bool { return sampling[i] < sampling[j] })

	fmt.Printf("nodes:               %d\n", len(res.Outcomes))
	fmt.Printf("builder sent:        %.1f MB in %d messages (%s policy)\n",
		float64(res.Seeding.Bytes)/1e6, res.Seeding.Messages, res.Seeding.Policy)
	fmt.Printf("sampling median:     %v\n", sampling[len(sampling)/2])
	fmt.Printf("sampling max:        %v\n", sampling[len(sampling)-1])
	fmt.Printf("met 4 s deadline:    %.1f%%\n", 100*res.DeadlineRate(cfg.Deadline))
	fmt.Printf("false-positive bound for %d samples: %.2g\n",
		cfg.Samples, blob.FalsePositiveBound(cfg.Blob.N(), cfg.Samples))
}
