package pandas

// Paper-scale micro-gates (scripts/bench.sh). The per-figure numbers come
// from `pandas-sim -exp <name>`, and the slot-budget benchmark lives in
// bench/ (BENCHMARK.json).

import (
	"math/rand"
	"testing"
	"time"

	"pandas/internal/core"
	"pandas/internal/ids"
)

// BenchmarkBuilderPrepareBlob measures the full real-payload builder
// pipeline at paper scale: 32 MiB of layer-2 data through the 2D
// 512x512 erasure extension, commitment, and per-cell proofs (Fig. 2).
// This is the end-to-end consumer of the erasure-coding fast paths.
// Skipped with -short.
func BenchmarkBuilderPrepareBlob(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale benchmark")
	}
	cfg := core.DefaultConfig()
	data := make([]byte, cfg.Blob.BlobBytes())
	rand.New(rand.NewSource(1)).Read(data)
	bld := core.NewBuilder(cfg, 0, ids.NodeID{}, nil, nil, 1)
	// One unmeasured prepare pays the one-time costs a real builder
	// amortizes over a session: codec/twiddle construction and the
	// extended-matrix, digest, and proof arenas (all reused per slot).
	// The measured loop is the steady-state slot path.
	if err := bld.PrepareBlob(data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bld.PrepareBlob(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedSlot1000 measures the simulator's raw throughput on
// a paper-scale (1,000-node) slot with full protocol parameters. Skipped
// with -short.
func BenchmarkSimulatedSlot1000(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale benchmark")
	}
	cluster, err := NewCluster(ClusterConfig{
		Core:     DefaultConfig(),
		N:        1000,
		Seed:     1,
		LossRate: 0.03,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSlot(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.DeadlineRate(4*time.Second), "onTime%")
	}
}
