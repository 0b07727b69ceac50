package core

import (
	"testing"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/blob"
	"pandas/internal/membership"
	"pandas/internal/obsv"
)

// TestAdversaryInactiveConfigMatchesHonest guards the wiring's inertness:
// a present-but-empty adversary config must leave the deployment
// bit-identical to one without the subsystem — the agents exist but wrap
// nothing, and no honest randomness stream is perturbed.
func TestAdversaryInactiveConfigMatchesHonest(t *testing.T) {
	run := func(adv *adversary.Config) *SlotResult {
		c := smallCluster(t, 100, func(cc *ClusterConfig) {
			cc.DeadFraction = 0.1
			cc.Adversary = adv
		})
		res, err := c.RunSlot(1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	honest := run(nil)
	inactive := run(&adversary.Config{})
	for i := range honest.Outcomes {
		a, b := honest.Outcomes[i], inactive.Outcomes[i]
		if a.Sampling != b.Sampling || a.Consolidation != b.Consolidation ||
			a.Seed != b.Seed || a.FetchMsgs != b.FetchMsgs {
			t.Fatalf("node %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestAdversaryRunsDeterministic pins the reproducibility contract for
// adversarial runs: the same seed with byzantine nodes, a withholding
// builder, and a scheduled fault produces bit-identical outcomes.
func TestAdversaryRunsDeterministic(t *testing.T) {
	run := func() []NodeOutcome {
		c := smallCluster(t, 100, func(cc *ClusterConfig) {
			cc.Adversary = &adversary.Config{
				SilentFraction:  0.1,
				GarbageFraction: 0.1,
				Withhold:        true,
				Faults: []adversary.Fault{{
					Kind: adversary.FaultLossBurst, At: 300 * time.Millisecond,
					Duration: 400 * time.Millisecond, LossRate: 0.5,
				}},
			}
		})
		var out []NodeOutcome
		for s := 1; s <= 2; s++ {
			res, err := c.RunSlot(uint64(s))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Outcomes...)
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		a, b := first[i], second[i]
		if a.Sampling != b.Sampling || a.Consolidation != b.Consolidation ||
			a.Seed != b.Seed || a.FetchMsgs != b.FetchMsgs || a.FetchBytes != b.FetchBytes {
			t.Fatalf("outcome %d diverged across identical runs: %+v vs %+v", i, a, b)
		}
	}
}

// byzantineSlot runs one slot with a fraction of nodes following the
// behavior and returns the cluster plus outcomes.
func byzantineSlot(t *testing.T, frac float64, set func(*adversary.Config, float64)) (*Cluster, *SlotResult) {
	t.Helper()
	adv := &adversary.Config{}
	set(adv, frac)
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Adversary = adv
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// TestSilentByzantineHonestDeadline is the acceptance bound: with 20% of
// nodes silently dropping every query, every honest node must still
// complete sampling within the 4 s deadline (in-flight redundancy plus
// liveness demotion route around non-responders).
func TestSilentByzantineHonestDeadline(t *testing.T) {
	c, res := byzantineSlot(t, 0.2, func(a *adversary.Config, f float64) { a.SilentFraction = f })
	deadline := c.cfg.Core.Deadline
	silent := 0
	for i, o := range res.Outcomes {
		if c.Behaviors()[i] != adversary.Honest {
			silent++
			continue
		}
		if o.Sampling < 0 || o.Sampling > deadline {
			t.Errorf("honest node %d sampled at %v with 20%% silent peers (deadline %v)", i, o.Sampling, deadline)
		}
	}
	if silent != 20 {
		t.Fatalf("sortition produced %d silent nodes, want 20", silent)
	}
}

// TestGarbageRejectedAndRetried checks the reject-and-requeue path end to
// end: corrupted cells fail verification at honest receivers, are counted
// and traced, never count as ingested — and the victims still finish
// sampling by re-requesting from honest peers.
func TestGarbageRejectedAndRetried(t *testing.T) {
	ring := obsv.MustRing(obsv.DefaultRingSize)
	adv := &adversary.Config{GarbageFraction: 0.2}
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Adversary = adv
		cc.Core.Recorder = ring
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	// Byzantine nodes fetch for themselves too (free-riders), so they
	// also receive — and must also reject — garbage from their peers:
	// the trace cross-check sums over every node, not just honest ones.
	rejects, honestRejects, corrupted := 0, 0, 0
	for i, n := range c.Nodes() {
		rejects += n.Metrics().CorruptRejects
		if c.Behaviors()[i] == adversary.Honest {
			honestRejects += n.Metrics().CorruptRejects
		}
		corrupted += c.Agents()[i].CorruptedCells
	}
	if corrupted == 0 {
		t.Fatal("garbage agents corrupted no cells")
	}
	if honestRejects == 0 {
		t.Fatal("honest nodes ingested corrupted cells without rejecting")
	}
	traced := 0
	for _, ev := range ring.Events() {
		if ev.Kind == obsv.KindCorruptReject {
			traced += int(ev.Count)
		}
	}
	if traced != rejects {
		t.Fatalf("traced %d corrupt rejects, views count %d", traced, rejects)
	}
	deadline := c.cfg.Core.Deadline
	for i, o := range res.Outcomes {
		if c.Behaviors()[i] != adversary.Honest {
			continue
		}
		if o.Sampling < 0 || o.Sampling > deadline {
			t.Errorf("honest node %d sampled at %v with 20%% garbage peers", i, o.Sampling)
		}
	}
}

// TestLaggardByzantineHonestDeadline: 20% of nodes respond 0.5-2 s late —
// past every round timeout. Honest nodes must treat them as absent and
// meet the deadline anyway.
func TestLaggardByzantineHonestDeadline(t *testing.T) {
	c, res := byzantineSlot(t, 0.2, func(a *adversary.Config, f float64) { a.LaggardFraction = f })
	deadline := c.cfg.Core.Deadline
	delayed := 0
	for _, a := range c.Agents() {
		delayed += a.DelayedResponses
	}
	if delayed == 0 {
		t.Fatal("laggard agents delayed no responses")
	}
	for i, o := range res.Outcomes {
		if c.Behaviors()[i] != adversary.Honest {
			continue
		}
		if o.Sampling < 0 || o.Sampling > deadline {
			t.Errorf("honest node %d sampled at %v with 20%% laggard peers", i, o.Sampling)
		}
	}
}

// TestPoisonerForgesAnnouncements wires poisoners into the churn
// announcement mesh: after real departures, poisoners must re-advertise
// departed peers as joins (counted on the agent and in the registry).
func TestPoisonerForgesAnnouncements(t *testing.T) {
	reg := obsv.NewRegistry()
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Core.Metrics = reg
		cc.Adversary = &adversary.Config{PoisonFraction: 0.1}
		cc.Churn = &membership.Config{
			Flash: []membership.FlashEvent{{At: time.Second, Leave: 10}},
		}
	})
	for s := 1; s <= 2; s++ {
		if _, err := c.RunSlot(uint64(s)); err != nil {
			t.Fatal(err)
		}
	}
	forged := 0
	for _, a := range c.Agents() {
		forged += a.ForgedAnnouncements
	}
	if forged == 0 {
		t.Fatal("poisoners forged no announcements despite departures")
	}
	if got := reg.Counter("adversary_poison_announcements_total").Value(); got != int64(forged) {
		t.Fatalf("registry counts %d forged announcements, agents count %d", got, forged)
	}
}

// TestWithholdingEmitsEvent: a withholding builder must trace the attack
// (withheld-cell event carrying the skipped-position count).
func TestWithholdingEmitsEvent(t *testing.T) {
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 50, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Adversary = &adversary.Config{Withhold: true}
	})
	if _, err := c.RunSlot(1); err != nil {
		t.Fatal(err)
	}
	n := c.cfg.Core.Blob.N()
	found := false
	for _, ev := range ring.Events() {
		if ev.Kind == obsv.KindWithheldCell {
			found = true
			if int(ev.Count) < blob.WithheldCells(n) {
				t.Fatalf("withheld-cell event counts %d, want >= %d", ev.Count, blob.WithheldCells(n))
			}
		}
	}
	if !found {
		t.Fatal("no withheld-cell event traced")
	}
}

// TestMaximalWithholdingBlocksSampling: under the maximal pattern, the
// vast majority of nodes must fail sampling (their targets include a
// withheld cell nobody can serve) — the detection property itself.
func TestMaximalWithholdingBlocksSampling(t *testing.T) {
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Adversary = &adversary.Config{Withhold: true}
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, o := range res.Outcomes {
		if o.Sampling >= 0 {
			sampled++
		}
	}
	// With 8 samples at the 32x32 test geometry the per-node miss
	// probability is ~7%; 30/100 leaves generous slack on both sides.
	if sampled > 30 {
		t.Fatalf("%d/100 nodes completed sampling under maximal withholding", sampled)
	}
	if sampled == 0 {
		t.Fatal("no node missed the withholding: sample-count geometry changed?")
	}
}

// TestPartitionFaultTracesAndHeals: a mid-slot partition must emit
// fault-start/stop events, actually cut traffic across the cut, and heal
// — nodes still sample by slot end once the window closes.
func TestPartitionFaultTracesAndHeals(t *testing.T) {
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Adversary = &adversary.Config{
			Faults: []adversary.Fault{{
				Kind: adversary.FaultPartition, At: 300 * time.Millisecond,
				Duration: 700 * time.Millisecond, Fraction: 0.3,
			}},
		}
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
// baseline afterwards (checked across two slots to cover re-arming).
func TestLossBurstRestoresBaseline(t *testing.T) {
	c := smallCluster(t, 50, func(cc *ClusterConfig) {
		cc.Adversary = &adversary.Config{
			Faults: []adversary.Fault{{
				Kind: adversary.FaultLossBurst, At: 200 * time.Millisecond,
				Duration: 300 * time.Millisecond, LossRate: 0.8,
			}},
		}
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
		cc.Adversary = &adversary.Config{
			Faults: []adversary.Fault{
				{Kind: adversary.FaultLossBurst, At: 200 * time.Millisecond,
					Duration: 300 * time.Millisecond, LossRate: 0.8},
				{Kind: adversary.FaultLossBurst, At: 300 * time.Millisecond,
					Duration: 400 * time.Millisecond, LossRate: 0.5},
			},
		}
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
		cc.Adversary = &adversary.Config{
			Faults: []adversary.Fault{
				{Kind: adversary.FaultPartition, At: 300 * time.Millisecond,
					Duration: 200 * time.Millisecond, Fraction: 0.5},
				{Kind: adversary.FaultPartition, At: 400 * time.Millisecond,
					Duration: 500 * time.Millisecond, Fraction: 0.5},
			},
		}
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
