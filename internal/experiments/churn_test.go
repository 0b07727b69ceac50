package experiments

import (
	"strings"
	"testing"
)

func TestChurnSweepSmallScale(t *testing.T) {
	res, err := Churn(TestOptions(), []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("points=%d", len(res.Samples))
	}
	static, churned := res.Sample("0.00"), res.Sample("0.30")
	if ev := static.Values; ev["leaves"]+ev["crashes"]+ev["joins"]+ev["restarts"] != 0 {
		t.Fatalf("rate 0 produced lifecycle events: %+v", ev)
	}
	if churned.Values["leaves"]+churned.Values["crashes"] == 0 {
		t.Fatal("rate 0.3 produced no departures")
	}
	if churned.Values["restarts"] == 0 {
		t.Fatal("rate 0.3 produced no restarts despite MeanDowntime")
	}
	if static.OnTimeRate() < 0.99 {
		t.Fatalf("static deadline rate %.2f", static.OnTimeRate())
	}
	if churned.OnTimeRate() < 0.8 {
		t.Fatalf("eligible nodes under churn sampled at only %.2f", churned.OnTimeRate())
	}
	if churned.Eligible() >= static.Eligible() {
		t.Fatal("churn did not shrink the eligible denominator")
	}
	out := res.Render()
	for _, want := range []string{"Churn sweep", "0.00", "0.30", "on-time%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestChurnRateZeroMatchesFig15 is the acceptance regression guard: the
// churn sweep at rate 0 takes the unmodified static-membership path, so
// its numbers must MATCH the Fig. 15 dead-node sweep at fraction 0 —
// same cluster construction, same RNG stream, same outcomes.
func TestChurnRateZeroMatchesFig15(t *testing.T) {
	o := TestOptions()
	churn, err := Churn(o, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	fig15, err := Fig15(o, FaultDead, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	cp, fp := churn.Samples[0], fig15.Samples[0]
	if cp.OnTimeRate() != fp.OnTimeRate() {
		t.Fatalf("deadline rate diverged: churn %.4f vs fig15 %.4f", cp.OnTimeRate(), fp.OnTimeRate())
	}
	if cp.Sampling.Median() != fp.Sampling.Median() {
		t.Fatalf("sampling median diverged: %v vs %v", cp.Sampling.Median(), fp.Sampling.Median())
	}
	if cp.Sampling.Percentile(99) != fp.Sampling.Percentile(99) {
		t.Fatalf("sampling P99 diverged: %v vs %v", cp.Sampling.Percentile(99), fp.Sampling.Percentile(99))
	}
}
