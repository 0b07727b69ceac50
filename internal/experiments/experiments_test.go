package experiments

import (
	"strings"
	"testing"

	"pandas/internal/core"
	"pandas/internal/simnet"
)

func TestFig9SmallScale(t *testing.T) {
	res, err := Fig9(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 3 {
		t.Fatalf("policies = %d", len(res.Samples))
	}
	for _, p := range seedingPolicies {
		pt := res.Sample(p.String())
		if pt.Sampling.Total() == 0 {
			t.Fatalf("policy %v: no sampling data", p)
		}
		// Seeding always precedes sampling in the aggregate.
		if pt.Seeding.Median() > pt.Sampling.Median() {
			t.Errorf("policy %v: seeding median after sampling median", p)
		}
	}
	if block := res.Sample(core.PolicyRedundant.String()).Block; block.Count() == 0 {
		t.Fatal("block gossip curve missing")
	}
	out := res.Render()
	for _, want := range []string{"Fig. 9", "minimal", "single", "redundant", "sampling", "block reception"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig9RedundantBeatsMinimalOnConsolidation(t *testing.T) {
	o := TestOptions()
	o.Nodes = 200
	res, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	red := res.Sample(core.PolicyRedundant.String()).Cons
	minimal := res.Sample(core.PolicyMinimal.String()).Cons
	// Paper: redundant seeding consolidates faster than minimal.
	if red.Median() > minimal.Median() {
		t.Fatalf("redundant median %v slower than minimal %v", red.Median(), minimal.Median())
	}
}

func TestFig10SmallScale(t *testing.T) {
	res, err := Fig10(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Msgs.Count() == 0 || s.Bytes.Count() == 0 {
			t.Fatalf("policy %v missing traffic data", s.Label)
		}
	}
	// Paper: redundant seeding needs FEWER fetch messages than minimal.
	if res.Sample(core.PolicyRedundant.String()).Msgs.Mean() > res.Sample(core.PolicyMinimal.String()).Msgs.Mean() {
		t.Fatal("redundant should reduce fetch messages vs minimal")
	}
	if !strings.Contains(res.Render(), "Fig. 10") {
		t.Fatal("render header missing")
	}
}

func TestTable1SmallScale(t *testing.T) {
	res, err := Table1(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 {
		t.Fatalf("rounds = %d", len(res.Samples))
	}
	r1 := res.Sample("round 1").Values
	if r1["Messages sent"] <= 0 || r1["Cells requested"] <= 0 {
		t.Fatal("round 1 has no activity")
	}
	// Cells requested must shrink across rounds (coverage grows).
	if res.Sample("round 3").Values["Cells requested"] > r1["Cells requested"] {
		t.Fatal("cells requested did not decrease by round 3")
	}
	// Coverage is cumulative.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].Values[table1Coverage]+1e-9 < res.Samples[i-1].Values[table1Coverage] {
			t.Fatal("coverage not monotone")
		}
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "Messages sent", "Cumulative coverage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig11SmallScale(t *testing.T) {
	res, err := Fig11(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive must not be slower at the tail than constant fetching.
	adaptive, constant := res.Sample("adaptive"), res.Sample("constant")
	if adaptive.Sampling.Percentile(99) > constant.Sampling.Percentile(99) {
		t.Fatalf("adaptive P99 %v > constant P99 %v",
			adaptive.Sampling.Percentile(99), constant.Sampling.Percentile(99))
	}
	// Constant fetching uses fewer messages (k=1 forever).
	if constant.Msgs.Mean() > adaptive.Msgs.Mean() {
		t.Fatal("constant strategy should send fewer messages")
	}
	if !strings.Contains(res.Render(), "constant(t=400ms,k=1)") {
		t.Fatal("render missing constant row")
	}
}

func TestFig12SmallScale(t *testing.T) {
	o := TestOptions()
	o.Nodes = 100
	o.Slots = 1
	res, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Sample(string(SystemPandas))
	g := res.Sample(string(SystemGossip))
	d := res.Sample(string(SystemDHT))
	if p == nil || g == nil || d == nil {
		t.Fatal("missing systems")
	}
	deadline := o.Core.Deadline
	if p.Sampling.FractionWithin(deadline) < g.Sampling.FractionWithin(deadline)-0.05 {
		t.Fatalf("PANDAS on-time %v below GossipSub %v",
			p.Sampling.FractionWithin(deadline), g.Sampling.FractionWithin(deadline))
	}
	if p.Sampling.Median() > d.Sampling.Median() {
		t.Fatal("PANDAS median should beat DHT")
	}
	if !strings.Contains(res.Render(), "gossipsub") {
		t.Fatal("render missing baseline")
	}
}

func TestFig13SmallScale(t *testing.T) {
	o := TestOptions()
	o.Slots = 1
	res, err := Fig13(o, []int{80, 160})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatal("sizes wrong")
	}
	for _, size := range []string{"80", "160"} {
		s := res.Sample(size)
		if s.Sampling.Total() == 0 {
			t.Fatalf("size %s: no data", size)
		}
		if s.Values["peak in flight"] == 0 {
			t.Fatalf("size %s: no message was ever in flight", size)
		}
	}
	if !strings.Contains(res.Render(), "Fig. 13") {
		t.Fatal("render header missing")
	}
}

func TestFig14SmallScale(t *testing.T) {
	o := TestOptions()
	o.Slots = 1
	res, err := Fig14(o, []int{80})
	if err != nil {
		t.Fatal(err)
	}
	per := res.Parts[0].Samples
	if len(per) != 3 {
		t.Fatalf("systems = %d", len(per))
	}
	if !strings.Contains(res.Render(), "80 nodes") {
		t.Fatal("render missing size header")
	}
}

func TestFig15DeadSweep(t *testing.T) {
	o := TestOptions()
	o.Nodes = 150
	o.Slots = 1
	res, err := Fig15(o, FaultDead, []float64{0, 0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 3 {
		t.Fatalf("points = %d", len(res.Samples))
	}
	// Deadline success must degrade monotonically-ish with faults: the
	// 80% point must be well below the fault-free point.
	if res.Sample("80%").OnTimeRate() >= res.Sample("0%").OnTimeRate() {
		t.Fatalf("no degradation: %v vs %v", res.Sample("80%").OnTimeRate(), res.Sample("0%").OnTimeRate())
	}
	if !strings.Contains(res.Render(), "Fig. 15a") {
		t.Fatal("render missing header")
	}
}

func TestFig15OutOfViewSweep(t *testing.T) {
	o := TestOptions()
	o.Nodes = 150
	o.Slots = 1
	res, err := Fig15(o, FaultOutOfView, []float64{0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample("60%").OnTimeRate() > res.Sample("0%").OnTimeRate() {
		t.Fatal("out-of-view nodes should not improve the deadline rate")
	}
	if !strings.Contains(res.Render(), "Fig. 15b") {
		t.Fatal("render missing header")
	}
}

func TestConfidence(t *testing.T) {
	res := Confidence(64, []int{5, 20, 40}, 2000, 1)
	if len(res.Samples) != 3 {
		t.Fatal("points wrong")
	}
	prev := 1.1
	for _, p := range res.Samples {
		analytic, empirical := p.Values["analytic"], p.Values["empirical"]
		if analytic > prev {
			t.Fatal("analytic bound not decreasing")
		}
		prev = analytic
		// Monte Carlo must not exceed the bound by much more than noise.
		if empirical > analytic*2+0.02 {
			t.Fatalf("empirical %v far above bound %v at s=%s", empirical, analytic, p.Label)
		}
	}
	if !strings.Contains(res.Render(), "Sampling confidence") {
		t.Fatal("render missing header")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Nodes != 1000 || o.Slots != 10 || o.Core.Blob.K != 256 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	// Every experiment runs at the paper's loss rate.
	if loss := clusterConfig(o).LossRate; loss != simnet.DefaultLossRate {
		t.Fatalf("experiments run at loss %v, want %v", loss, simnet.DefaultLossRate)
	}
}

func TestAblationSweep(t *testing.T) {
	o := TestOptions()
	o.Nodes = 150
	o.Slots = 1
	res, err := Ablation(o, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("points = %d", len(res.Samples))
	}
	r1, r4 := res.Sample("1"), res.Sample("4")
	// More redundancy means more builder bytes...
	if r4.Values["builder bytes"] <= r1.Values["builder bytes"] {
		t.Fatal("builder cost did not grow with redundancy")
	}
	// ...and at least as good a deadline rate.
	if r4.OnTimeRate()+0.05 < r1.OnTimeRate() {
		t.Fatalf("higher redundancy degraded the deadline rate: %v vs %v",
			r4.OnTimeRate(), r1.OnTimeRate())
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Fatal("render header missing")
	}
}
