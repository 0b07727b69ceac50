// Localnet: a REAL PANDAS deployment over UDP sockets on 127.0.0.1 —
// actual cell payloads, Reed-Solomon reconstruction, commitment
// verification, and proposer signatures. This is the single-process
// equivalent of the paper's cluster prototype (see cmd/pandas-node for
// the multi-process variant).
package main

import (
	"fmt"
	"log"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/swarm"
)

func main() {
	cfg := core.TestConfig()
	// A dense small geometry so 16 nodes give every row/column several
	// holders: 16x16 extended matrix, 4+4 custody lines, 6 samples.
	cfg.Blob = blob.Params{K: 8, CellBytes: 64, ProofBytes: 48}
	cfg.Assign.N = cfg.Blob.N()
	cfg.Assign.Rows, cfg.Assign.Cols = 4, 4
	cfg.Samples = 6

	ln, err := swarm.NewLocalnet(cfg, 16, 7)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	for slot := uint64(1); slot <= 3; slot++ {
		times, err := ln.RunSlot(slot, 8*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		onTime, finished := 0, 0
		var max time.Duration
		for _, d := range times {
			if d < 0 {
				continue
			}
			finished++
			if d <= cfg.Deadline {
				onTime++
			}
			if d > max {
				max = d
			}
		}
		fmt.Printf("slot %d: %d/%d nodes sampled (max %v), %d within the 4 s deadline\n",
			slot, finished, len(times), max.Round(time.Millisecond), onTime)
	}

	// Show that custody is real, verified data: dump one reconstructed
	// cell from node 0's store.
	node := ln.Nodes[0]
	line := ln.Table.Assignment(0).Lines()[0]
	fmt.Printf("node 0 custody line %v: %d/%d cells held (erasure-reconstructed and verified)\n",
		line, node.Store().LineCount(line), cfg.Blob.N())
}
