package experiments

import (
	"testing"
)

func gatewayTestOptions() (Options, GatewayLoadOptions) {
	return Options{Nodes: 48, Slots: 2, Seed: 42},
		GatewayLoadOptions{Clients: 300, QueriesPerClient: 3}
}

// TestGatewayLoadGolden pins the deterministic core of the load
// harness for a fixed seed. Latency is wall-clock and varies run to
// run, but the query streams are drawn from per-client seeded RNGs and
// every query completes, so the COUNT accounting must be exact:
//
//   - each slot completes Clients x QueriesPerClient queries;
//   - upstream fetches == distinct cells drawn that slot (the cache is
//     ample and the coalescer dedups everything else — this equality IS
//     the subsystem's reason to exist);
//   - cache hits + coalesced joins covers every remaining query (the
//     hit/join split depends on timing, their sum does not);
//   - no rejects (clients issue sequentially, well under QueueDepth),
//     no bad proofs, no upstream errors;
//   - verified cells == upstream fetches: every fetched cell is checked
//     exactly once, and only a cell that passed is served or cached.
func TestGatewayLoadGolden(t *testing.T) {
	o, gwo := gatewayTestOptions()
	res, err := GatewayLoad(o, gwo)
	if err != nil {
		t.Fatal(err)
	}
	slots := res.Samples[:len(res.Samples)-1] // the last sample is the aggregate
	if len(slots) != o.Slots {
		t.Fatalf("slots = %d, want %d", len(slots), o.Slots)
	}
	perSlot := float64(gwo.Clients * gwo.QueriesPerClient)
	for _, slot := range slots {
		ss := slot.Values
		if ss["queries"] != perSlot {
			t.Fatalf("slot %s: queries = %.0f, want %.0f", slot.Label, ss["queries"], perSlot)
		}
		if ss["rejects"] != 0 || ss["bad proofs"] != 0 {
			t.Fatalf("slot %s: rejects=%.0f badProofs=%.0f, want 0/0", slot.Label, ss["rejects"], ss["bad proofs"])
		}
		if ss["upstream"] != ss["distinct"] {
			t.Fatalf("slot %s: upstream=%.0f distinct=%.0f — coalescing+cache must reduce to one fetch per distinct cell",
				slot.Label, ss["upstream"], ss["distinct"])
		}
		if ss["hits"]+ss["joins"]+ss["upstream"] != ss["queries"] {
			t.Fatalf("slot %s: hits(%.0f)+joins(%.0f)+upstream(%.0f) != queries(%.0f)",
				slot.Label, ss["hits"], ss["joins"], ss["upstream"], ss["queries"])
		}
		if ss["verified"] != ss["upstream"] {
			t.Fatalf("slot %s: verified=%.0f upstream=%.0f — each fetched cell must be checked once",
				slot.Label, ss["verified"], ss["upstream"])
		}
	}
	if agg := res.Sample("aggregate").Values; agg["reduction"] < 2 {
		t.Fatalf("upstream reduction = %.1fx; zipf over %.0f cells with %.0f queries must dedup more",
			agg["reduction"], agg["cells"], agg["queries"])
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

// TestGatewayLoadDeterministic: two runs with the same seed agree on
// every deterministic field (the golden contract the experiment report
// relies on).
func TestGatewayLoadDeterministic(t *testing.T) {
	o, gwo := gatewayTestOptions()
	a, err := GatewayLoad(o, gwo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GatewayLoad(o, gwo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples { // the slots, then the aggregate
		sa, sb := a.Samples[i].Values, b.Samples[i].Values
		if sa["distinct"] != sb["distinct"] || sa["upstream"] != sb["upstream"] ||
			sa["queries"] != sb["queries"] {
			t.Fatalf("%s diverged across runs: %+v vs %+v", a.Samples[i].Label, sa, sb)
		}
	}
	// A different seed draws a different workload.
	o2 := o
	o2.Seed = 43
	c, err := GatewayLoad(o2, gwo)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sample("1").Values["distinct"] == a.Sample("1").Values["distinct"] &&
		c.Sample("2").Values["distinct"] == a.Sample("2").Values["distinct"] {
		t.Fatal("seed change did not change the workload")
	}
}

// BenchmarkGatewayLoad100k is the acceptance workload: 100k concurrent
// synthetic light clients per slot against a simnet cluster. Custom
// metrics report what the table in EXPERIMENTS.md tracks. Skipped with
// -short.
func BenchmarkGatewayLoad100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-client workload")
	}
	for i := 0; i < b.N; i++ {
		res, err := GatewayLoad(
			Options{Nodes: 128, Slots: 2, Seed: 42},
			GatewayLoadOptions{Clients: 100_000, QueriesPerClient: 3},
		)
		if err != nil {
			b.Fatal(err)
		}
		agg := res.Sample("aggregate").Values
		b.ReportMetric((res.Sample("1").Values["qps"]+res.Sample("2").Values["qps"])/2, "qps")
		b.ReportMetric(agg["p50 us"], "p50_us")
		b.ReportMetric(agg["p99 us"], "p99_us")
		b.ReportMetric(agg["hit rate"]*100, "hit_%")
		b.ReportMetric(agg["reduction"], "reduction_x")
		b.ReportMetric(agg["coalesce"], "coalesce_x")
	}
}
