package core

import (
	"errors"
	"testing"
	"time"

	"pandas/internal/obsv"
)

// everySlot repeats a slot's events in each of the first slots slots: an
// event at offset At fires at s*SlotDuration + At in slot s+1.
func everySlot(slots int, events ...ScenarioEvent) []ScenarioEvent {
	var out []ScenarioEvent
	for s := 0; s < slots; s++ {
		for _, ev := range events {
			ev.At += time.Duration(s) * SlotDuration
			out = append(out, ev)
		}
	}
	return out
}

func TestScenarioValidation(t *testing.T) {
	const n = 50
	window := func(k ScenarioKind) ScenarioEvent {
		return ScenarioEvent{Kind: k, At: time.Second, Duration: time.Second, Count: 10, LossRate: 0.5}
	}
	cases := []struct {
		name string
		ev   ScenarioEvent
		ok   bool
	}{
		{"partition", window(Partition), true},
		{"loss burst", ScenarioEvent{Kind: LossBurst, Duration: time.Second, LossRate: 0.5}, true},
		{"join", ScenarioEvent{Kind: Join, Count: 5}, true},
		{"restart", ScenarioEvent{Kind: Restart, At: time.Second, Count: 1}, true},
		{"leave every node", ScenarioEvent{Kind: Leave, Count: n}, true},
		{"crash", ScenarioEvent{Kind: Crash, At: time.Second, Count: 3}, true},
		{"partition of no node", ScenarioEvent{Kind: Partition, Duration: time.Second}, false},
		{"partition of every node", ScenarioEvent{Kind: Partition, Duration: time.Second, Count: n}, false},
		{"partition past the network", ScenarioEvent{Kind: Partition, Duration: time.Second, Count: n + 1}, false},
		{"partition zero duration", ScenarioEvent{Kind: Partition, Count: 10}, false},
		{"loss burst zero duration", ScenarioEvent{Kind: LossBurst, LossRate: 0.5}, false},
		{"loss burst zero rate", ScenarioEvent{Kind: LossBurst, Duration: time.Second}, false},
		{"loss burst certain loss", ScenarioEvent{Kind: LossBurst, Duration: time.Second, LossRate: 1}, false},
		{"join of no node", ScenarioEvent{Kind: Join}, false},
		{"restart negative count", ScenarioEvent{Kind: Restart, Count: -1}, false},
		{"crash past the network", ScenarioEvent{Kind: Crash, Count: n + 1}, false},
		{"negative at", ScenarioEvent{Kind: Leave, At: -time.Millisecond, Count: 1}, false},
		{"zero kind", ScenarioEvent{Count: 1}, false},
		{"unknown kind", ScenarioEvent{Kind: Crash + 1, Count: 1}, false},
	}
	for _, tc := range cases {
		err := validateScenario([]ScenarioEvent{window(LossBurst), tc.ev}, n)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", tc.name, err)
		}
	}
	_, err := NewCluster(ClusterConfig{Core: TestConfig(), N: n, Seed: 1,
		Scenario: []ScenarioEvent{{Kind: Crash, Count: n + 1}}})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NewCluster accepted an invalid scenario: %v", err)
	}
}

// TestPartitionFaultTracesAndHeals: a mid-slot partition must emit
// fault-start/stop events, actually cut traffic across the cut, and heal
// — nodes still sample by slot end once the window closes.
func TestPartitionFaultTracesAndHeals(t *testing.T) {
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Scenario = []ScenarioEvent{{
			Kind: Partition, At: 300 * time.Millisecond,
			Duration: 700 * time.Millisecond, Count: 30,
		}}
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	starts, stops := 0, 0
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obsv.KindFaultStart:
			starts++
			if ev.Count != 30 {
				t.Errorf("fault-start isolates %d nodes, want 30", ev.Count)
			}
		case obsv.KindFaultStop:
			stops++
		}
	}
	if starts != 1 || stops != 1 {
		t.Fatalf("fault events: %d starts, %d stops, want 1/1", starts, stops)
	}
	sampled := 0
	for _, o := range res.Outcomes {
		if o.Sampling >= 0 {
			sampled++
		}
	}
	if sampled < 95 {
		t.Fatalf("only %d/100 nodes sampled after the partition healed", sampled)
	}
}

// TestLossBurstRestoresBaseline: the loss-burst fault must raise the
// simulator's drop rate for its window only, restoring the configured
// baseline afterwards (checked across two slots, one burst in each).
func TestLossBurstRestoresBaseline(t *testing.T) {
	c := smallCluster(t, 50, func(cc *ClusterConfig) {
		cc.Scenario = everySlot(2, ScenarioEvent{
			Kind: LossBurst, At: 200 * time.Millisecond,
			Duration: 300 * time.Millisecond, LossRate: 0.8,
		})
	})
	base := c.Network().LossRate()
	for s := 1; s <= 2; s++ {
		if _, err := c.RunSlot(uint64(s)); err != nil {
			t.Fatal(err)
		}
		if got := c.Network().LossRate(); got != base {
			t.Fatalf("slot %d left loss rate %v, baseline %v", s, got, base)
		}
	}
}

// TestOverlappingLossBurstsRestoreBaseline: while two bursts overlap the
// higher rate holds, the later one's rate once the first closes, and the
// configured baseline once both have closed, in every slot.
func TestOverlappingLossBurstsRestoreBaseline(t *testing.T) {
	c := smallCluster(t, 50, func(cc *ClusterConfig) {
		cc.Scenario = everySlot(2,
			ScenarioEvent{Kind: LossBurst, At: 200 * time.Millisecond,
				Duration: 300 * time.Millisecond, LossRate: 0.8},
			ScenarioEvent{Kind: LossBurst, At: 300 * time.Millisecond,
				Duration: 400 * time.Millisecond, LossRate: 0.5},
		)
	})
	base := c.Network().LossRate()
	for s := 1; s <= 2; s++ {
		var both, second float64
		c.Network().After(400*time.Millisecond, func() { both = c.Network().LossRate() })
		c.Network().After(600*time.Millisecond, func() { second = c.Network().LossRate() })
		if _, err := c.RunSlot(uint64(s)); err != nil {
			t.Fatal(err)
		}
		if both != 0.8 || second != 0.5 {
			t.Fatalf("slot %d: loss rate %v with both bursts open, %v with the second alone; want 0.8, 0.5", s, both, second)
		}
		if got := c.Network().LossRate(); got != base {
			t.Fatalf("slot %d left loss rate %v, baseline %v", s, got, base)
		}
	}
}

// TestOverlappingPartitionsKeepNodesCut: when one partition window
// closes, the nodes a still-open window isolates stay cut; once every
// window has closed, no node is.
func TestOverlappingPartitionsKeepNodesCut(t *testing.T) {
	c := smallCluster(t, 50, func(cc *ClusterConfig) {
		cc.Scenario = everySlot(2,
			ScenarioEvent{Kind: Partition, At: 300 * time.Millisecond,
				Duration: 200 * time.Millisecond, Count: 25},
			ScenarioEvent{Kind: Partition, At: 400 * time.Millisecond,
				Duration: 500 * time.Millisecond, Count: 25},
		)
	})
	for s := 1; s <= 2; s++ {
		cut := -1
		c.Network().After(600*time.Millisecond, func() { cut = c.partCount })
		if _, err := c.RunSlot(uint64(s)); err != nil {
			t.Fatal(err)
		}
		if cut != 25 {
			t.Fatalf("slot %d: %d nodes cut with the second 50%% window open, want 25", s, cut)
		}
		if c.partCount != 0 {
			t.Fatalf("slot %d: %d nodes still cut after every window closed", s, c.partCount)
		}
	}
}

// TestPartitionComposesWithCrashBurst runs a network fault and a
// lifecycle burst in one scenario: ten nodes crash while a fifth of the
// network is cut off. The window's and the crashes' transitions must all
// be traced, every crasher must carry its departure, the cut must heal,
// and every node still up at the deadline must have sampled by it.
func TestPartitionComposesWithCrashBurst(t *testing.T) {
	const crashAt = 500 * time.Millisecond
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Scenario = []ScenarioEvent{
			{Kind: Partition, At: 300 * time.Millisecond, Duration: 700 * time.Millisecond, Count: 20},
			{Kind: Crash, At: crashAt, Count: 10},
		}
	})
	cut := -1
	c.Network().After(crashAt, func() { cut = c.partCount })
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 20 {
		t.Fatalf("%d nodes cut inside the window, want 20", cut)
	}
	if c.partCount != 0 {
		t.Fatalf("%d nodes still cut after the window closed", c.partCount)
	}
	starts, stops, crashes := 0, 0, 0
	for _, ev := range ring.Events() {
		switch {
		case ev.Kind == obsv.KindFaultStart && ScenarioKind(ev.Aux) == Partition:
			starts++
		case ev.Kind == obsv.KindFaultStop && ScenarioKind(ev.Aux) == Partition:
			stops++
		case ev.Kind == obsv.KindChurnEvent && obsv.ChurnOp(ev.Aux) == obsv.ChurnCrash:
			crashes++
			if ev.At != crashAt {
				t.Errorf("node %d crashed at %v, want %v", ev.Node, ev.At, crashAt)
			}
		}
	}
	if starts != 1 || stops != 1 || crashes != 10 {
		t.Fatalf("traced %d fault starts, %d stops, %d crashes; want 1, 1, 10", starts, stops, crashes)
	}
	if res.Churn.Crashes != 10 {
		t.Fatalf("crashes=%d, want 10", res.Churn.Crashes)
	}
	left := 0
	for i, o := range res.Outcomes {
		if o.LeftAt < 0 {
			if !c.engine.Online(i) {
				t.Errorf("node %d is offline but carries no LeftAt", i)
			}
			continue
		}
		left++
		if o.LeftAt != crashAt {
			t.Errorf("node %d left at %v, want %v", i, o.LeftAt, crashAt)
		}
	}
	if left != 10 {
		t.Fatalf("%d outcomes carry LeftAt, want 10", left)
	}
	deadline := c.cfg.Core.Deadline
	for i, o := range res.Outcomes {
		if o.EligibleAt(deadline) && (o.Sampling < 0 || o.Sampling > deadline) {
			t.Errorf("survivor %d sampled at %v, deadline %v", i, o.Sampling, deadline)
		}
	}
}
