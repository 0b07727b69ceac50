// Baseline comparison: a Fig. 12-style head-to-head of PANDAS against
// the two alternative DAS designs — GossipSub topic meshes and the
// Kademlia DHT — over one deployment: at one seed the three share the
// network, the identities, the custody table and each node's sample
// draws. At this reduced geometry GossipSub's pushed custody beats the
// PANDAS median at several times its traffic, and the DHT's multi-hop
// lookups are several times slower; DESIGN.md §3.3 says what each
// traffic column counts.
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
