package core

import (
	"testing"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/blob"
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
// builder, and a loss burst in each slot produces bit-identical outcomes.
func TestAdversaryRunsDeterministic(t *testing.T) {
	run := func() []NodeOutcome {
		c := smallCluster(t, 100, func(cc *ClusterConfig) {
			cc.Adversary = &adversary.Config{
				SilentFraction:  0.1,
				GarbageFraction: 0.1,
				Withhold:        true,
			}
			cc.Scenario = everySlot(2, ScenarioEvent{
				Kind: LossBurst, At: 300 * time.Millisecond,
				Duration: 400 * time.Millisecond, LossRate: 0.5,
			})
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
// complete sampling within the 4 s deadline (in-flight redundancy and the
// per-slot queryable set, which asks each peer at most once until it is
// re-armed, route around non-responders, and peer health backs off the
// silent peers whose reply deadline expires).
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
