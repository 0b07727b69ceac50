package core

import (
	"bytes"
	"testing"
	"time"

	"pandas/internal/membership"

	"pandas/internal/obsv"
)

// TestTraceDoesNotPerturbProtocol guards the determinism contract: a run
// with the recorder enabled produces bit-identical outcomes to a run
// without it (no instrumentation touches RNG or timing).
func TestTraceDoesNotPerturbProtocol(t *testing.T) {
	run := func(rec obsv.Recorder) []time.Duration {
		c := smallCluster(t, 80, func(cc *ClusterConfig) {
			cc.DeadFraction = 0.1
			cc.Core.Recorder = rec
		})
		res, err := c.RunSlot(1)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, len(res.Outcomes))
		for i, o := range res.Outcomes {
			out[i] = o.Sampling
		}
		return out
	}
	plain := run(nil)
	traced := run(obsv.MustRing(obsv.DefaultRingSize))
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("node %d: sampling %v without trace, %v with", i, plain[i], traced[i])
		}
	}
}

// TestTimelineMatchesLegacyAggregation is the golden cross-check of the
// unified read path: a fig15-style slot (20% dead nodes) is traced, the
// trace is round-tripped through JSONL, and the reconstructed timeline
// must reproduce every live node's NodeOutcome phase durations — and
// therefore the sampling-completion CDF — bit for bit.
func TestTimelineMatchesLegacyAggregation(t *testing.T) {
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 120, func(cc *ClusterConfig) {
		cc.DeadFraction = 0.2
		cc.Core.Recorder = ring
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Overwritten() > 0 {
		t.Fatalf("ring wrapped (%d lost): grow the test ring", ring.Overwritten())
	}

	// Round-trip the trace through the JSONL exporter, as an offline
	// analysis would.
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, ring.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := obsv.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	st := obsv.NewTimeline(events).Slot(1)
	if st == nil {
		t.Fatal("trace has no slot 1")
	}
	// The builder's seed-sent events give it a timeline entry too; the
	// outcome comparison covers live protocol nodes only. A dead node runs
	// nothing, so it has no timeline entry at all.
	var live []int
	for i, o := range res.Outcomes {
		if !o.Dead {
			live = append(live, i)
		} else if st.Node(i) != nil {
			t.Errorf("dead node %d emitted events", i)
		}
	}
	n := len(res.Outcomes)
	liveOnly := func(node int) bool { return node < n && !res.Outcomes[node].Dead }

	for phase, legacy := range map[obsv.Phase]func(NodeOutcome) time.Duration{
		obsv.PhaseSeed:          func(o NodeOutcome) time.Duration { return o.Seed },
		obsv.PhaseConsolidation: func(o NodeOutcome) time.Duration { return o.Consolidation },
		obsv.PhaseSampling:      func(o NodeOutcome) time.Duration { return o.Sampling },
	} {
		got := st.Durations(phase, liveOnly)
		if len(got) != len(live) {
			t.Fatalf("%v: timeline has %d live nodes, outcomes %d", phase, len(got), len(live))
		}
		for j, d := range got {
			if want := legacy(res.Outcomes[live[j]]); d != want {
				t.Errorf("%v node %d: timeline %v, legacy %v", phase, live[j], d, want)
			}
		}
	}

	// The derived CDF — what the figures plot — must agree bit for bit.
	legacySeries := make([]time.Duration, len(live))
	for j, i := range live {
		legacySeries[j] = res.Outcomes[i].Sampling
	}
	dLegacy := obsv.NewDistribution(legacySeries)
	dTrace := obsv.NewDistribution(st.Durations(obsv.PhaseSampling, liveOnly))
	if dLegacy.Count() != dTrace.Count() || dLegacy.Failures() != dTrace.Failures() {
		t.Fatalf("distribution shape differs: legacy %d/%d, trace %d/%d",
			dLegacy.Count(), dLegacy.Failures(), dTrace.Count(), dTrace.Failures())
	}
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
		if a, b := dLegacy.Percentile(p), dTrace.Percentile(p); a != b {
			t.Errorf("p%v: legacy %v, trace %v", p, a, b)
		}
	}
	lc, tc := dLegacy.CDF(64), dTrace.CDF(64)
	for i := range lc {
		if lc[i] != tc[i] {
			t.Fatalf("CDF point %d differs: legacy %+v, trace %+v", i, lc[i], tc[i])
		}
	}
}

// TestTraceChurnEvents checks that a churn-enabled run records membership
// lifecycle transitions.
func TestTraceChurnEvents(t *testing.T) {
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 80, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Churn = &membership.Config{
			MeanSession:  20 * time.Second,
			MeanDowntime: 5 * time.Second,
		}
		cc.Scenario = []ScenarioEvent{{Kind: Join, At: 2 * time.Second, Count: 16}}
	})
	for slot := uint64(1); slot <= 2; slot++ {
		if _, err := c.RunSlot(slot); err != nil {
			t.Fatal(err)
		}
	}
	churn := 0
	for _, e := range ring.Events() {
		if e.Kind == obsv.KindChurnEvent {
			churn++
			op := obsv.ChurnOp(e.Aux)
			if op < obsv.ChurnJoin || op > obsv.ChurnCrash {
				t.Fatalf("churn event with bad op: %+v", e)
			}
		}
	}
	if churn == 0 {
		t.Fatal("churn-enabled run recorded no churn events")
	}
}
