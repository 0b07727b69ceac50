package experiments

import (
	"fmt"
	"math"
	"testing"

	"pandas/internal/adversary"
	"pandas/internal/core"
)

// TestWithholdingMatchesMonteCarlo is the protocol-level golden test of
// the Section 3 sampling analysis: the miss rate of real adversarial
// cluster runs under maximal withholding must agree with confidence.go's
// idealized Monte Carlo at the same geometry, within combined binomial
// confidence bounds. This ties the end-to-end protocol (seeding,
// fetching, per-node sample draws) to the math the 73-sample choice
// rests on.
func TestWithholdingMatchesMonteCarlo(t *testing.T) {
	o := TestOptions()
	o.Slots = 3 // 360 node-slots per point
	const mcTrials = 5000
	res, err := Withholding(o, nil, mcTrials)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no sweep points")
	}
	for _, p := range res.Samples {
		cluster, monteCarlo, analytic := p.Values["cluster"], p.Values["monte carlo"], p.Values["analytic"]
		if p.Eligible() < 300 {
			t.Fatalf("samples=%s: only %d node-slots measured", p.Label, p.Eligible())
		}
		if !withinCI(cluster, p.Eligible(), monteCarlo, mcTrials, 4) {
			t.Errorf("samples=%s: cluster miss %.4f vs Monte Carlo %.4f outside 4-sigma bounds (%d node-slots)",
				p.Label, cluster, monteCarlo, p.Eligible())
		}
		// The analytic hypergeometric bound upper-bounds both estimators
		// up to sampling noise; a gross violation means the withholding
		// pattern and the analysis no longer describe the same attack.
		if cluster > analytic+0.1 {
			t.Errorf("samples=%s: cluster miss %.4f far above analytic bound %.4f",
				p.Label, cluster, analytic)
		}
	}
}

// withinCI reports whether the cluster and Monte Carlo miss rates agree
// within z combined binomial standard errors (plus a small absolute
// floor for the zero-miss regime, where both estimators degenerate).
func withinCI(cluster float64, trials int, monteCarlo float64, mcTrials int, z float64) bool {
	se := func(rate float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return math.Sqrt(rate * (1 - rate) / float64(n))
	}
	tol := z*math.Hypot(se(cluster, trials), se(monteCarlo, mcTrials)) + 0.01
	return math.Abs(cluster-monteCarlo) <= tol
}

// TestByzantineSweepDeadline pins the acceptance bound at the test
// geometry: at 20% silent byzantine nodes every honest node meets the
// 4 s sampling deadline, and the zero-fraction point is unaffected.
func TestByzantineSweepDeadline(t *testing.T) {
	o := TestOptions()
	res, err := Byzantine(o, adversary.Silent, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Samples {
		if p.OnTimeRate() != 1.0 {
			t.Errorf("silent fraction %s: honest deadline rate %.4f, want 1.0",
				p.Label, p.OnTimeRate())
		}
	}
}

// TestByzantineSweepGarbageRejects: the garbage sweep must surface
// verification rejects in its table (the reject counter is the sweep's
// evidence that corrupted cells were served and refused).
func TestByzantineSweepGarbageRejects(t *testing.T) {
	o := TestOptions()
	o.Nodes = 60
	o.Slots = 1
	res, err := Byzantine(o, adversary.Garbage, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if rejects := res.Sample("0%").Values["corrupt rejects"]; rejects != 0 {
		t.Fatalf("honest point reports %.0f corrupt rejects", rejects)
	}
	if res.Sample("20%").Values["corrupt rejects"] == 0 {
		t.Fatal("garbage point reports no corrupt rejects")
	}
}

// TestByzantineRejectsCountEverySlot: the rejects column totals every
// slot of the run, not only the last one (each slot resets the nodes'
// views). The per-slot counts are read from the nodes' live views of a
// twin cluster after each slot.
func TestByzantineRejectsCountEverySlot(t *testing.T) {
	o := TestOptions()
	res, err := Byzantine(o, adversary.Garbage, []float64{0.2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCluster(o.withDefaults(), func(cc *core.ClusterConfig) {
		cc.Adversary = &adversary.Config{GarbageFraction: 0.2}
	})
	if err != nil {
		t.Fatal(err)
	}
	want, last := 0, 0
	for s := 1; s <= o.Slots; s++ {
		if _, err := c.RunSlot(uint64(s)); err != nil {
			t.Fatal(err)
		}
		last = 0
		for _, n := range c.Nodes() {
			last += n.Metrics().CorruptRejects
		}
		want += last
	}
	if last == want {
		t.Fatalf("only the last of %d slots saw rejects (%d): the test cannot tell the sum from it", o.Slots, want)
	}
	if got := res.Sample("20%").Values["corrupt rejects"]; got != float64(want) {
		t.Fatalf("corrupt rejects = %.0f, want the per-slot sum %d (last slot alone: %d)", got, want, last)
	}
	if cell := res.Rows[0][4]; cell != fmt.Sprint(want) {
		t.Fatalf("rejects column reads %s, want %d", cell, want)
	}
}
