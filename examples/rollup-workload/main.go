// Rollup workload: the full layer-2 story the paper motivates. A
// synthetic multi-rollup workload is packed into a blob, the builder
// disseminates it through a PANDAS slot (real payloads, erasure coding,
// commitments), and afterwards a rollup participant retrieves its batch
// from the nodes' distributed custody — without any single node holding
// the whole blob.
package main

import (
	"bytes"
	"fmt"
	"log"

	"pandas/internal/blob"
	"pandas/internal/core"
)

func main() {
	cfg := core.TestConfig()
	cfg.RealPayloads = true

	// 1. Layer-2 workload: several rollups post compressed batches.
	gen := NewGenerator(42, 6, 1024)
	payload, batches := gen.FillBlob(cfg.Blob.BlobBytes())
	th := Summarize(batches)
	fmt.Printf("blob carries %d batches from %d rollups: %d txs, %d KB\n",
		th.Batches, 6, th.Txs, th.Bytes/1024)

	// 2. One PANDAS slot.
	cluster, err := core.NewCluster(core.ClusterConfig{
		Core: cfg, N: 120, Seed: 5, LossRate: 0.03,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Builder().PrepareBlob(payload); err != nil {
		log.Fatal(err)
	}
	res, err := cluster.RunSlot(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slot complete: %.1f%% of nodes sampled within 4 s\n",
		100*res.DeadlineRate(cfg.Deadline))

	// 3. A rollup participant reassembles the blob from DISTRIBUTED
	//    custody: for every base row, find any node whose custody holds
	//    it and read the data cells.
	p := cfg.Blob
	recovered := make([]byte, 0, p.BlobBytes())
	for r := 0; r < p.K; r++ {
		line := blob.Line{Kind: blob.Row, Index: uint16(r)}
		holders := cluster.Table().Holders(line)
		var rowData []byte
		for _, h := range holders {
			node := cluster.Nodes()[h]
			if !node.Store().LineComplete(line) {
				continue
			}
			for c := 0; c < p.K; c++ {
				cell, ok := node.Store().Peek(blob.CellID{Row: uint16(r), Col: uint16(c)})
				if !ok {
					log.Fatalf("row %d cell %d missing at holder %d", r, c, h)
				}
				rowData = append(rowData, cell.Data...)
			}
			break
		}
		if rowData == nil {
			log.Fatalf("no holder has row %d", r)
		}
		recovered = append(recovered, rowData...)
	}

	// 4. Verify the layer-2 data survived the distributed round trip.
	got, err := UnpackBlob(recovered)
	if err != nil {
		log.Fatal(err)
	}
	if len(got) != len(batches) {
		log.Fatalf("recovered %d batches, want %d", len(got), len(batches))
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, batches[i].Data) {
			log.Fatalf("batch %d corrupted", i)
		}
	}
	fmt.Printf("rollup participant recovered all %d batches from distributed custody\n", len(got))
}
