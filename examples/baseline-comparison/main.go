// Baseline comparison: a Fig. 12-style head-to-head of PANDAS against
// the two alternative DAS designs — GossipSub topic meshes and the
// Kademlia DHT — on identical networks. The output shows the paper's
// headline: direct, builder-seeded exchanges finish sampling far sooner
// and with less traffic than overlay-based dissemination.
package main

import (
	"fmt"
	"log"

	"pandas/internal/experiments"
)

func main() {
	o := experiments.TestOptions()
	o.Nodes = 200
	o.Slots = 1

	res, err := experiments.Fig12(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())

	p := res.Sample(string(experiments.SystemPandas)).Sampling
	g := res.Sample(string(experiments.SystemGossip)).Sampling
	d := res.Sample(string(experiments.SystemDHT)).Sampling
	fmt.Printf("median speedup vs GossipSub: %.1fx\n", float64(g.Median())/float64(p.Median()))
	fmt.Printf("median speedup vs DHT:       %.1fx\n", float64(d.Median())/float64(p.Median()))
}
