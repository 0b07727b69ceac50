package pandas

// A paper-scale benchmark: a 1,000-node simulated slot at full geometry.
// The per-figure numbers come from `pandas-sim -exp <name>`, and the
// slot-budget benchmark, the builder pipeline included, lives in bench/
// (BENCHMARK.json).

import (
	"testing"
	"time"
)

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
