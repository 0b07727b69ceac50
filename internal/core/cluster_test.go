package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/fetch"
	"pandas/internal/ids"
	"pandas/internal/obsv"
	"pandas/internal/simnet"
	"pandas/internal/wire"
)

// smallCluster builds a fast deployment for tests: scaled-down blob,
// moderate node count, paper-like loss and latency.
func smallCluster(t testing.TB, n int, mutate func(*ClusterConfig)) *Cluster {
	t.Helper()
	cc := ClusterConfig{
		Core:     TestConfig(),
		N:        n,
		Seed:     42,
		LossRate: simnet.DefaultLossRate,
	}
	if mutate != nil {
		mutate(&cc)
	}
	c, err := NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Core: TestConfig(), N: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad := TestConfig()
	bad.Samples = 0
	if _, err := NewCluster(ClusterConfig{Core: bad, N: 5}); err == nil {
		t.Fatal("invalid core config accepted")
	}
	// A negative loss rate is an error, not a request for the default.
	if _, err := NewCluster(ClusterConfig{Core: TestConfig(), N: 5, LossRate: -1}); err == nil {
		t.Fatal("negative loss rate accepted")
	}
}

func TestSlotAllNodesSampleWithinDeadline(t *testing.T) {
	c := smallCluster(t, 120, nil)
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := c.cfg.Core.Deadline
	seedless := 0
	for i, o := range res.Outcomes {
		if o.Seed < 0 {
			// At this scale a node's whole seed batch fits in one UDP
			// datagram, so 3% loss occasionally leaves a node seedless;
			// it must still sample via the timer path.
			seedless++
		}
		if o.Sampling < 0 {
			t.Errorf("node %d never completed sampling", i)
		} else if o.Sampling > deadline {
			t.Errorf("node %d sampled at %v > %v", i, o.Sampling, deadline)
		}
		if o.Consolidation < 0 {
			t.Errorf("node %d never consolidated", i)
		}
	}
	if rate := res.DeadlineRate(deadline); rate < 1.0 {
		t.Fatalf("deadline rate %v < 1.0", rate)
	}
	if seedless > len(res.Outcomes)/10 {
		t.Fatalf("%d nodes never received seeds", seedless)
	}
	if res.Seeding.Cells == 0 || res.Seeding.Messages == 0 {
		t.Fatal("builder sent nothing")
	}
}

func TestSlotPhaseOrdering(t *testing.T) {
	c := smallCluster(t, 80, nil)
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.Consolidation < 0 || o.Sampling < 0 {
			t.Fatalf("node %d incomplete: %+v", i, o)
		}
		// Consolidation cannot finish before the first seed message (when
		// seeds arrived at all).
		if o.Seed >= 0 && o.ConsFromSeed < 0 {
			t.Errorf("node %d: consolidation before seeding (%v)", i, o.ConsFromSeed)
		}
	}
}

func TestSlotNodesVerifyStoreContents(t *testing.T) {
	c := smallCluster(t, 60, nil)
	if _, err := c.RunSlot(1); err != nil {
		t.Fatal(err)
	}
	// After a successful slot every node's custody lines are complete and
	// all samples are present.
	for i, n := range c.Nodes() {
		a := c.Table().Assignment(i)
		for _, l := range a.Lines() {
			if !n.Store().LineComplete(l) {
				t.Fatalf("node %d line %v incomplete", i, l)
			}
		}
		for _, smp := range n.Samples() {
			if !n.Store().Has(smp) {
				t.Fatalf("node %d sample %v missing", i, smp)
			}
		}
	}
}

func TestSlotSeedingPolicies(t *testing.T) {
	// Builder cost ordering: minimal < single < redundant. The minimal
	// policy needs enough holders per line to survive response loss (it
	// has zero erasure slack — the paper calls it fragile and evaluates
	// at 1,000 nodes), so this test runs at a larger scale and holds it
	// to a softer bar.
	thresholds := map[Policy]float64{
		PolicyMinimal:   0.80,
		PolicySingle:    0.95,
		PolicyRedundant: 0.95,
	}
	var bytesByPolicy []int64
	for _, policy := range []Policy{PolicyMinimal, PolicySingle, PolicyRedundant} {
		c := smallCluster(t, 300, func(cc *ClusterConfig) {
			cc.Core.Policy = policy
		})
		res, err := c.RunSlot(1)
		if err != nil {
			t.Fatal(err)
		}
		if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate < thresholds[policy] {
			t.Errorf("policy %v: deadline rate %v", policy, rate)
		}
		bytesByPolicy = append(bytesByPolicy, res.Seeding.Bytes)
	}
	if !(bytesByPolicy[0] < bytesByPolicy[1] && bytesByPolicy[1] < bytesByPolicy[2]) {
		t.Fatalf("policy cost ordering violated: %v", bytesByPolicy)
	}
}

func TestSlotRedundantPolicyVolume(t *testing.T) {
	// Redundant seeding sends ~r times the single policy's cell count.
	cSingle := smallCluster(t, 60, func(cc *ClusterConfig) { cc.Core.Policy = PolicySingle })
	resSingle, err := cSingle.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	cRed := smallCluster(t, 60, func(cc *ClusterConfig) { cc.Core.Policy = PolicyRedundant })
	resRed, err := cRed.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	r := float64(cRed.cfg.Core.Redundancy)
	ratio := float64(resRed.Seeding.Cells) / float64(resSingle.Seeding.Cells)
	// Lines with fewer than r holders cap their replication, so at this
	// small scale the ratio sits below r but well above 1.
	if ratio < 2 || ratio > r*1.05 {
		t.Fatalf("redundant/single cell ratio %.2f, want in (2, %v]", ratio, r)
	}
	// Single policy sends each extended cell exactly once.
	total := cSingle.cfg.Core.Blob.ExtendedCells()
	if resSingle.Seeding.Cells != total {
		t.Fatalf("single policy sent %d cells, want %d", resSingle.Seeding.Cells, total)
	}
}

func TestSlotWithDeadNodes(t *testing.T) {
	c := smallCluster(t, 150, func(cc *ClusterConfig) {
		cc.DeadFraction = 0.2
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for i, o := range res.Outcomes {
		if !o.Dead {
			continue
		}
		dead++
		// A dead node runs nothing: no round, no send, not even a store.
		if len(o.Rounds) != 0 || o.FetchMsgs != 0 || c.Nodes()[i].Store() != nil {
			t.Errorf("dead node %d ran: %d rounds, %d messages, store %v",
				i, len(o.Rounds), o.FetchMsgs, c.Nodes()[i].Store() != nil)
		}
	}
	if dead != 30 {
		t.Fatalf("dead = %d, want 30", dead)
	}
	// The paper: 20% dead nodes still let the great majority of live
	// nodes finish on time.
	if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate < 0.9 {
		t.Fatalf("deadline rate with 20%% dead = %v", rate)
	}
}

func TestSlotWithOutOfViewNodes(t *testing.T) {
	c := smallCluster(t, 150, func(cc *ClusterConfig) {
		cc.OutOfViewFraction = 0.2
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate < 0.9 {
		t.Fatalf("deadline rate with 20%% out-of-view = %v", rate)
	}
}

func TestSlotSevereFaultsDegrade(t *testing.T) {
	// 80% dead nodes must hurt: far fewer live nodes meet the deadline
	// than in the fault-free case (paper: 27% at 80% dead).
	healthy := smallCluster(t, 100, nil)
	resH, err := healthy.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	faulty := smallCluster(t, 100, func(cc *ClusterConfig) { cc.DeadFraction = 0.8 })
	resF, err := faulty.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	rh := resH.DeadlineRate(healthy.cfg.Core.Deadline)
	rf := resF.DeadlineRate(faulty.cfg.Core.Deadline)
	if rf >= rh {
		t.Fatalf("80%% dead nodes did not degrade: healthy=%v faulty=%v", rh, rf)
	}
}

// TestStaticClusterBacksOffDeadPeers: peer health needs no churn. In a
// static cluster with four fifths of the nodes dead, live nodes whose
// queries to dead holders go unanswered past inflightTTL time those
// holders out and back them off.
func TestStaticClusterBacksOffDeadPeers(t *testing.T) {
	var timeouts []obsv.Event
	c := smallCluster(t, 150, func(cc *ClusterConfig) {
		cc.DeadFraction = 0.8
		cc.Core.Recorder = obsv.RecorderFunc(func(e obsv.Event) {
			if e.Kind == obsv.KindPeerTimeout {
				timeouts = append(timeouts, e)
			}
		})
	})
	var res *SlotResult
	for s := uint64(1); s <= 2; s++ {
		var err error
		if res, err = c.RunSlot(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(timeouts) == 0 {
		t.Fatal("no live node timed out a peer with 80% of the nodes dead")
	}
	for _, e := range timeouts {
		if res.Outcomes[e.Peer].Dead {
			return
		}
	}
	t.Fatalf("%d peer timeouts, none of a dead node", len(timeouts))
}

func TestSlotWithholdingDetected(t *testing.T) {
	// The builder withholds the maximal non-reconstructable square
	// (Fig. 3-right). No live node may complete sampling: unavailability
	// is systematically detected.
	c := smallCluster(t, 100, nil)
	n := c.cfg.Core.Blob.N()
	h := n/2 + 1
	c.Builder().SetWithholding(func(id blob.CellID) bool {
		return int(id.Row) < h && int(id.Col) < h
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeding.Withheld == 0 {
		t.Fatal("withholding did not suppress any cells")
	}
	sampled := 0
	for _, o := range res.Outcomes {
		if o.Sampling >= 0 {
			sampled++
		}
	}
	// With 8 samples over a 32x32 matrix and a 17x17 withheld square,
	// the per-node false-positive bound is (1-0.28)^8 ~ 7%; allow slack
	// but the vast majority must detect unavailability.
	if frac := float64(sampled) / float64(len(res.Outcomes)); frac > 0.2 {
		t.Fatalf("%.0f%% of nodes wrongly considered withheld data available", frac*100)
	}
}

// TestSlotAttestations: with the block gossiped, every node receives it
// and nearly every node has sampled by the 4 s attestation deadline.
func TestSlotAttestations(t *testing.T) {
	c := smallCluster(t, 80, func(cc *ClusterConfig) { cc.BlockGossip = true })
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.BlockRecv < 0 || o.BlockRecv > c.cfg.Core.Deadline {
			t.Errorf("node %d received the block at %v", i, o.BlockRecv)
		}
	}
	if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate < 0.95 {
		t.Fatalf("only %.0f%% of nodes sampled by the attestation deadline", rate*100)
	}
}

func TestSlotRealPayloadsEndToEnd(t *testing.T) {
	// Full data plane: real cells, erasure reconstruction, commitment
	// verification, proposer signatures.
	c := smallCluster(t, 60, func(cc *ClusterConfig) {
		cc.Core.RealPayloads = true
		cc.VerifySeeds = true
	})
	data := make([]byte, c.cfg.Core.Blob.BlobBytes())
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := c.Builder().PrepareBlob(data); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate < 0.95 {
		t.Fatalf("real-payload deadline rate %v", rate)
	}
	// Spot-check that a node's reconstructed custody matches the
	// builder's extension.
	node := c.Nodes()[0]
	a := c.Table().Assignment(0)
	l := a.Lines()[0]
	for pos := 0; pos < c.cfg.Core.Blob.N(); pos++ {
		id := cellOnLine(l, pos)
		cell, ok := node.Store().Peek(id)
		if !ok {
			t.Fatalf("node 0 missing custody cell %v", id)
		}
		want := c.Builder().extended.Cell(id)
		if string(cell.Data) != string(want) {
			t.Fatalf("node 0 cell %v differs from builder", id)
		}
	}
}

// TestBaseRowsReadBackFromCustody: after a lossy real-payload slot, the
// blob can be read back from distributed custody alone. For every base
// row, the data cells of a holder whose copy of the row is complete,
// concatenated in row order, equal the bytes the builder was given.
func TestBaseRowsReadBackFromCustody(t *testing.T) {
	c := smallCluster(t, 120, func(cc *ClusterConfig) {
		cc.Seed = 5
		cc.Core.RealPayloads = true
	})
	p := c.cfg.Core.Blob
	data := make([]byte, p.BlobBytes())
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	if err := c.Builder().PrepareBlob(data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSlot(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, len(data))
	for r := 0; r < p.K; r++ {
		line := blob.Line{Kind: blob.Row, Index: uint16(r)}
		var holder *Node
		for _, h := range c.Table().Holders(line) {
			if n := c.Nodes()[h]; n.Store().LineComplete(line) {
				holder = n
				break
			}
		}
		if holder == nil {
			t.Fatalf("no holder has row %d complete", r)
		}
		for col := 0; col < p.K; col++ {
			cell, ok := holder.Store().Peek(blob.CellID{Row: uint16(r), Col: uint16(col)})
			if !ok {
				t.Fatalf("row %d is complete but cell %d is missing", r, col)
			}
			got = append(got, cell.Data...)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("base rows read back from custody differ from the builder's blob")
	}
}

func TestSlotDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		c := smallCluster(t, 60, nil)
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
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d sampling time differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMultipleSlots(t *testing.T) {
	c := smallCluster(t, 60, nil)
	for slot := uint64(1); slot <= 3; slot++ {
		res, err := c.RunSlot(slot)
		if err != nil {
			t.Fatal(err)
		}
		if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate < 1.0 {
			t.Fatalf("slot %d deadline rate %v", slot, rate)
		}
	}
}

func TestRoundStatsRecorded(t *testing.T) {
	c := smallCluster(t, 100, nil)
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	withRounds := 0
	for _, o := range res.Outcomes {
		if len(o.Rounds) > 0 {
			withRounds++
			if o.Rounds[0].MsgsSent == 0 && o.Rounds[0].CellsRequested > 0 {
				t.Fatal("round recorded cells without messages")
			}
		}
	}
	if withRounds == 0 {
		t.Fatal("no node recorded fetch rounds")
	}
}

func TestConstantScheduleIsSlower(t *testing.T) {
	// Fig. 11: the non-adaptive baseline must not beat adaptive fetching
	// at the tail.
	adaptive := smallCluster(t, 120, nil)
	resA, err := adaptive.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	constant := smallCluster(t, 120, func(cc *ClusterConfig) {
		cc.Core.Schedule = constantScheduleForTest()
	})
	resC, err := constant.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	maxA := maxSampling(resA)
	maxC := maxSampling(resC)
	if maxC < maxA {
		t.Fatalf("constant fetching faster at the tail: %v < %v", maxC, maxA)
	}
}

func maxSampling(res *SlotResult) time.Duration {
	var m time.Duration
	for _, o := range res.Outcomes {
		if o.Sampling > m {
			m = o.Sampling
		}
	}
	return m
}

func constantScheduleForTest() fetch.Schedule {
	return fetch.ConstantSchedule(400*time.Millisecond, 1)
}

func TestLaggingNodeCatchesUpNextSlot(t *testing.T) {
	// Paper 8.2: "Lagging nodes can perform multiple rounds of sample
	// fetching per 12 s slot, enabling them to catch up once network
	// conditions stabilize." A node dead during slot 1 recovers in
	// slot 2.
	c := smallCluster(t, 120, func(cc *ClusterConfig) { cc.DeadFraction = 0 })
	victim := 7
	if err := c.Network().SetDead(victim, true); err != nil {
		t.Fatal(err)
	}
	res1, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Outcomes[victim].Sampling >= 0 {
		t.Fatal("dead node completed sampling")
	}
	// The node comes back; the next slot must complete normally.
	if err := c.Network().SetDead(victim, false); err != nil {
		t.Fatal(err)
	}
	res2, err := c.RunSlot(2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcomes[victim].Sampling < 0 {
		t.Fatal("recovered node did not sample in the next slot")
	}
	if res2.Outcomes[victim].Sampling > c.cfg.Core.Deadline {
		t.Fatalf("recovered node too slow: %v", res2.Outcomes[victim].Sampling)
	}
}

// TestEpochSeedsDifferPerEpoch: the epoch seed is a function of the
// entropy and the epoch alone, and changes with either.
func TestEpochSeedsDifferPerEpoch(t *testing.T) {
	s1 := epochSeed([32]byte{1}, 1)
	if s1 == epochSeed([32]byte{1}, 2) {
		t.Fatal("consecutive epochs share a seed")
	}
	if s1 != epochSeed([32]byte{1}, 1) {
		t.Fatal("seed not deterministic")
	}
	if s1 == epochSeed([32]byte{2}, 1) {
		t.Fatal("different entropy produced equal seed")
	}
}

func TestEpochRotationChangesAssignments(t *testing.T) {
	// Short-liveness end to end: tables derived from different epoch
	// seeds assign different lines, preventing targeted placement.
	c := smallCluster(t, 50, nil)
	a1 := c.Table().Assignment(3)
	d, err := NewDeployment(c.cfg.Core, c.cfg.Seed, 50)
	if err != nil {
		t.Fatal(err)
	}
	seed2 := epochSeed(d.entropy, 1)
	ids2 := make([]ids.NodeID, 50)
	for i := range ids2 {
		ids2[i] = c.Table().ID(i)
	}
	t2, err := NewTable(c.cfg.Core.Assign, seed2, ids2)
	if err != nil {
		t.Fatal(err)
	}
	a2 := t2.Assignment(3)
	same := len(a1.Rows) == len(a2.Rows)
	if same {
		for i := range a1.Rows {
			if a1.Rows[i] != a2.Rows[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("assignment did not rotate across epochs")
	}
}

// TestCommitteeDecisionEndToEnd: what a 2/3 committee would decide
// follows from who sampled by the attestation deadline — a supermajority
// in a healthy slot, less than two thirds under maximal withholding.
func TestCommitteeDecisionEndToEnd(t *testing.T) {
	c := smallCluster(t, 100, func(cc *ClusterConfig) { cc.BlockGossip = true })
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate*3 < 2 {
		t.Fatalf("healthy slot: only %.0f%% of nodes on time", rate*100)
	}

	w := smallCluster(t, 100, func(cc *ClusterConfig) { cc.BlockGossip = true })
	n := w.cfg.Core.Blob.N()
	h := n/2 + 1
	w.Builder().SetWithholding(func(id blob.CellID) bool {
		return int(id.Row) < h && int(id.Col) < h
	})
	wres, err := w.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, o := range wres.Outcomes {
		if o.Sampling >= 0 {
			sampled++
		}
	}
	if sampled*3 >= 2*len(wres.Outcomes) {
		t.Fatalf("withholding slot: %d of %d nodes sampled", sampled, len(wres.Outcomes))
	}
}

// TestOnSlotDoneFiresOncePerSlot pins the completion event the real-socket
// hosts are built on: once per StartSlot, at the virtual time the slot
// became complete (sampling alone with DisableConsolidation), never for a
// node that does not complete, and again after a mid-slot restart.
func TestOnSlotDoneFiresOncePerSlot(t *testing.T) {
	for _, noCons := range []bool{false, true} {
		c := smallCluster(t, 120, func(cc *ClusterConfig) {
			cc.DeadFraction = 0.1
			cc.Core.DisableConsolidation = noCons
		})
		fired := make([][]time.Duration, len(c.Nodes()))
		restarted := -1
		for i, n := range c.Nodes() {
			n.OnSlotDone(func() { fired[i] = append(fired[i], c.Network().Now()) })
			if restarted < 0 && !c.dead[i] {
				restarted = i
			}
		}
		for slot := uint64(1); slot <= 2; slot++ {
			for i := range fired {
				fired[i] = nil
			}
			start := c.Network().Now()
			if slot == 2 {
				c.Network().After(2*time.Second, func() { c.Nodes()[restarted].StartSlot(slot) })
			}
			if _, err := c.RunSlot(slot); err != nil {
				t.Fatal(err)
			}
			completed := 0
			for i, n := range c.Nodes() {
				m := n.Metrics()
				at, done := m.SampledAt, m.Sampled
				if !noCons {
					at, done = max(at, m.ConsolidatedAt), done && m.Consolidated
				}
				want := 0
				if done {
					want = 1
					completed++
				}
				if i == restarted && slot == 2 {
					if !done || len(fired[i]) == 0 || fired[i][0] >= start+2*time.Second {
						t.Fatalf("noCons=%v: node %d must complete before and after its restart: %v", noCons, i, fired[i])
					}
					want++
				}
				if len(fired[i]) != want {
					t.Fatalf("noCons=%v slot %d node %d (dead=%v): event fired %d times, want %d",
						noCons, slot, i, c.dead[i], len(fired[i]), want)
				}
				if done && fired[i][want-1] != at {
					t.Fatalf("noCons=%v slot %d node %d: event at %v, slot complete at %v",
						noCons, slot, i, fired[i][want-1], at)
				}
			}
			t.Logf("noCons=%v slot %d: %d of %d nodes completed", noCons, slot, completed, len(c.Nodes()))
			if dead := len(c.Nodes()) / 10; completed == 0 || completed > len(c.Nodes())-dead {
				t.Fatalf("noCons=%v slot %d: %d nodes completed", noCons, slot, completed)
			}
		}
	}
}

// TestSamplingWithoutConsolidationFindsHolders pins sampling alone: a
// custodian then holds only its seed cells, so a node must find the few
// that hold its samples among every holder of their lines. Each live
// node samples by the deadline, and a node restarted 2 s into slot 2
// (seeding has passed it by) samples again within the slot, unless no
// live node holds one of its samples at all. Asks that nobody would
// answer once seeding was over, and re-arms that re-asked the same peers
// in the same order, left about a third of the nodes unsampled here.
func TestSamplingWithoutConsolidationFindsHolders(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		c := smallCluster(t, 120, func(cc *ClusterConfig) {
			cc.DeadFraction = 0.1
			cc.Core.DisableConsolidation = true
			cc.Seed = seed
		})
		restarted := slices.Index(c.dead, false)
		for slot := uint64(1); slot <= 2; slot++ {
			if slot == 2 {
				c.Network().After(2*time.Second, func() { c.Nodes()[restarted].StartSlot(slot) })
			}
			res, err := c.RunSlot(slot)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range c.Nodes() {
				o := res.Outcomes[i]
				ok := o.Sampling > 0 && o.Sampling <= c.cfg.Core.Deadline
				if i == restarted && slot == 2 {
					ok = n.Metrics().Sampled
				}
				if o.Dead || ok {
					continue
				}
				if id, unheld := unheldSample(c, n); unheld {
					t.Logf("seed %d slot %d: node %d misses %v, which no live node holds", seed, slot, i, id)
					continue
				}
				t.Fatalf("seed %d slot %d: node %d did not sample in time, and each of its samples has a live holder", seed, slot, i)
			}
		}
	}
}

// unheldSample returns a sample of n that it lacks and no live node of
// its row or column holds.
func unheldSample(c *Cluster, n *Node) (blob.CellID, bool) {
	for _, id := range n.samples {
		if n.store.Has(id) {
			continue
		}
		held := false
		for _, l := range []blob.Line{{Kind: blob.Row, Index: id.Row}, {Kind: blob.Col, Index: id.Col}} {
			for _, h := range n.table.Holders(l) {
				held = held || !c.dead[h] && c.Nodes()[h].store.Has(id)
			}
		}
		if !held {
			return id, true
		}
	}
	return blob.CellID{}, false
}

// roundOneHedge is Σ⌈d/4⌉ over a node's custody lines, d being a line's
// deficit to K: the cells round 1 asks beyond what decoding needs. It
// reads the node's state right after round 1 is planned, which nothing
// has changed since.
func roundOneHedge(n *Node) int {
	hedge := 0
	for li := 0; li < n.store.TrackedLines(); li++ {
		l := n.store.lineAt(li)
		d := n.cfg.Blob.K - n.store.LineCount(l)
		for pos := 0; pos < n.store.n; pos++ {
			if n.promised(cellOnLine(l, pos)) {
				d--
			}
		}
		if d > 0 {
			hedge += (d + fetchHedgeDiv - 1) / fetchHedgeDiv
		}
	}
	return hedge
}

// TestRoundOneDuplicatesWithinHedge pins the fetch surplus on a lossless,
// all-honest network: every node consolidates and samples, and the cells
// a node's round-1 asks bring in twice are no more than the hedge it
// asked for. Three kinds of ask fall outside a line's hedge, and each may
// cost one duplicate more: a cell on two custody lines, asked for one of
// them, which the other's decode restores or whose arrival counts toward
// it; a sample on a custody line; and a cell asked again in a later round,
// whose round-1 reply arrives second. A line that asked for its seeds'
// cells again, or for a fixed surplus on top of them, would exceed it.
func TestRoundOneDuplicatesWithinHedge(t *testing.T) {
	// Twenty deployments: without the reconstruction fixpoint, about one
	// in twenty leaves a node that never consolidates.
	for seed := int64(1); seed <= 20; seed++ {
		roundOneDuplicatesWithinHedge(t, seed)
	}
}

func roundOneDuplicatesWithinHedge(t *testing.T, seed int64) {
	c := smallCluster(t, 120, func(cc *ClusterConfig) {
		cc.LossRate = 0
		cc.Seed = seed
	})
	hedge := make([]int, len(c.Nodes()))
	asks := make([]map[blob.CellID]int, len(c.Nodes()))
	for i, n := range c.Nodes() {
		asks[i] = map[blob.CellID]int{}
		if err := c.Network().SetHandler(i, func(from, size int, payload any) {
			if q, ok := payload.(*wire.Query); ok && from >= 0 && from < len(asks) {
				for _, id := range q.Cells {
					asks[from][id]++
				}
			}
			before := n.round
			c.dispatch(i, from, size, payload)
			if before == 0 && n.round == 1 {
				hedge[i] = roundOneHedge(n)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	crossings := c.cfg.Core.Assign.Rows * c.cfg.Core.Assign.Cols
	for i, o := range res.Outcomes {
		if o.Consolidation < 0 || o.Sampling < 0 {
			t.Fatalf("seed %d node %d: consolidated %v, sampled %v", seed, i, o.Consolidation, o.Sampling)
		}
		if len(o.Rounds) == 0 {
			continue
		}
		n := c.Nodes()[i]
		bound := hedge[i] + crossings
		for _, s := range n.Samples() {
			if n.store.rowIndex(s.Row) >= 0 {
				bound++
			}
			if n.store.colIndex(s.Col) >= 0 {
				bound++
			}
		}
		for _, k := range asks[i] {
			if k > 1 {
				bound++
			}
		}
		if d := o.Rounds[0].Duplicates; d > bound {
			t.Errorf("seed %d node %d: %d round-1 duplicates, hedge %d, bound %d", seed, i, d, hedge[i], bound)
		}
	}
}

// BenchmarkSimulatedSlot1000 measures the simulator's raw throughput on
// a paper-scale (1,000-node) slot with full protocol parameters. Skipped
// with -short. The slot-budget benchmark, the builder pipeline included,
// lives in bench/ (BENCHMARK.json).
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
