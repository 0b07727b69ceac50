package experiments

import (
	"strings"
	"testing"

	"pandas/internal/core"
)

func TestScaleSweep(t *testing.T) {
	o := TestOptions()
	o.Slots = 1
	res, err := Scale(o, []int{60, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("points = %d", len(res.Samples))
	}
	for _, p := range res.Samples {
		if p.Values["events"] == 0 {
			t.Fatalf("N=%s: no events executed", p.Label)
		}
		if p.Values["events/sec"] <= 0 {
			t.Fatalf("N=%s: events/sec = %v", p.Label, p.Values["events/sec"])
		}
		if p.OnTimeRate() <= 0 {
			t.Fatalf("N=%s: no node sampled on time", p.Label)
		}
	}
	// More nodes means more work.
	if small, big := res.Sample("60").Values["events"], res.Sample("120").Values["events"]; big <= small {
		t.Fatalf("events did not grow with N: %.0f vs %.0f", small, big)
	}
	out := res.Render()
	if !strings.Contains(out, "bytes/node") || !strings.Contains(out, "events/sec") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

// BenchmarkSimnetScale100k is the scripts/bench.sh capacity gate: one
// full metadata-mode slot at 100,000 nodes, reporting resident
// bytes/node and engine events/sec (run with -benchtime=1x).
func BenchmarkSimnetScale100k(b *testing.B) {
	o := Options{Nodes: 100_000, Slots: 1, Seed: 1, Core: core.TestConfig()}
	for i := 0; i < b.N; i++ {
		res, err := Scale(o, []int{o.Nodes})
		if err != nil {
			b.Fatal(err)
		}
		p := res.Samples[0]
		if p.OnTimeRate() < 0.9 {
			b.Fatalf("100k-node run missed the sampling deadline: on-time %.1f%%", 100*p.OnTimeRate())
		}
		b.ReportMetric(p.Values["bytes/node"], "bytes/node")
		b.ReportMetric(p.Values["events/sec"], "events/sec")
	}
}
