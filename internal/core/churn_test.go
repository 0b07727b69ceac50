package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pandas/internal/membership"
	"pandas/internal/obsv"
)

// TestChurnInactiveConfigMatchesStatic is the regression guard for the
// dynamic-membership wiring: a present-but-inactive churn config must
// leave the deployment bit-identical to the static path — same RNG
// stream, same outcomes.
func TestChurnInactiveConfigMatchesStatic(t *testing.T) {
	run := func(churn *membership.Config) *SlotResult {
		c := smallCluster(t, 100, func(cc *ClusterConfig) {
			cc.DeadFraction = 0.1
			cc.OutOfViewFraction = 0.2
			cc.BlockGossip = true
			cc.Churn = churn
		})
		res, err := c.RunSlot(1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(nil)
	inactive := run(&membership.Config{MeanDowntime: time.Second}) // downtime-only: inactive
	if len(static.Outcomes) != len(inactive.Outcomes) {
		t.Fatal("outcome count diverged")
	}
	for i := range static.Outcomes {
		a, b := static.Outcomes[i], inactive.Outcomes[i]
		if a.Sampling != b.Sampling || a.Consolidation != b.Consolidation ||
			a.Seed != b.Seed || a.FetchMsgs != b.FetchMsgs || a.Dead != b.Dead {
			t.Fatalf("node %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestChurnCrashMidFetchRound crashes nodes ~800 ms into the slot —
// squarely inside the adaptive fetch rounds. Crashed nodes must be
// excluded from the deadline denominator, and the survivors must still
// meet the deadline despite their fetch plans pointing at peers that
// silently vanished (peer health's backoff reroutes them).
func TestChurnCrashMidFetchRound(t *testing.T) {
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Scenario = []ScenarioEvent{{Kind: Crash, At: 800 * time.Millisecond, Count: 10}}
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn.Crashes != 10 {
		t.Fatalf("crashes=%d, want 10", res.Churn.Crashes)
	}
	crashed := 0
	for i, o := range res.Outcomes {
		if o.LeftAt < 0 {
			continue
		}
		crashed++
		if o.LeftAt != 800*time.Millisecond {
			t.Errorf("node %d left at %v, want 800ms", i, o.LeftAt)
		}
		if o.EligibleAt(c.cfg.Core.Deadline) {
			t.Errorf("node %d crashed before the deadline yet counts as eligible", i)
		}
	}
	if crashed != 10 {
		t.Fatalf("%d outcomes carry LeftAt, want 10", crashed)
	}
	if rate := res.DeadlineRate(c.cfg.Core.Deadline); rate < 0.95 {
		t.Fatalf("survivor deadline rate %.2f after mid-fetch crashes", rate)
	}
}

// TestChurnJoinAfterSeeding brings nodes held out of the network online
// at 1.5 s — after the builder's seeding pass, before sampling settles.
// Joiners start from an empty store, are excluded from the deadline
// metric, and must still complete sampling purely by fetching.
func TestChurnJoinAfterSeeding(t *testing.T) {
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Scenario = []ScenarioEvent{{Kind: Join, At: 1500 * time.Millisecond, Count: 5}}
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn.Joins != 5 {
		t.Fatalf("joins=%d, want 5", res.Churn.Joins)
	}
	joined, sampled := res.JoinerCatchUp()
	if joined != 5 {
		t.Fatalf("JoinerCatchUp joined=%d, want 5", joined)
	}
	if sampled == 0 {
		t.Fatal("no joiner completed sampling before the slot ended")
	}
	for i, o := range res.Outcomes {
		if o.JoinedAt < 0 {
			continue
		}
		if o.JoinedAt != 1500*time.Millisecond {
			t.Errorf("node %d joined at %v, want 1500ms", i, o.JoinedAt)
		}
		if o.Offline {
			t.Errorf("node %d joined mid-slot yet reads Offline", i)
		}
		if o.EligibleAt(c.cfg.Core.Deadline) {
			t.Errorf("joiner %d counts toward the deadline denominator", i)
		}
		if o.Sampling >= 0 && o.Sampling <= o.JoinedAt {
			t.Errorf("node %d sampled at %v before joining at %v", i, o.Sampling, o.JoinedAt)
		}
		if o.Seed >= 0 {
			t.Errorf("joiner %d received seeds despite joining after the seeding pass", i)
		}
	}
}

// TestChurnRestartResumesCustodyEmptyStore crashes one node mid-slot and
// restarts it 1.5 s later. The restart must
// resume custody from an EMPTY store — no seed state survives — and the
// generation guard must keep the pre-crash timers from firing into the
// restarted lifetime.
func TestChurnRestartResumesCustodyEmptyStore(t *testing.T) {
	c := smallCluster(t, 80, func(cc *ClusterConfig) {
		cc.Scenario = []ScenarioEvent{
			{Kind: Crash, At: time.Second, Count: 1},
			{Kind: Restart, At: 2500 * time.Millisecond, Count: 1},
		}
	})
	// Probe the restarted node shortly after its join fires: JoinSlot must
	// have wiped all per-slot state (the crash lost the store).
	var probed, hadSeed, wasSampled bool
	c.Network().After(2600*time.Millisecond, func() {
		for i := range c.nodes {
			if c.joinedAt[i] >= 0 {
				probed = true
				hadSeed = c.nodes[i].Metrics().HasSeed
				wasSampled = c.nodes[i].Metrics().Sampled
			}
		}
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn.Crashes != 1 || res.Churn.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", res.Churn.Crashes, res.Churn.Restarts)
	}
	if !probed {
		t.Fatal("probe never found the restarted node")
	}
	if hadSeed || wasSampled {
		t.Fatalf("restart kept pre-crash state: hadSeed=%v sampled=%v", hadSeed, wasSampled)
	}
	for i, o := range res.Outcomes {
		if o.JoinedAt < 0 {
			continue
		}
		if o.LeftAt != time.Second || o.JoinedAt != 2500*time.Millisecond {
			t.Fatalf("node %d lifecycle %v/%v, want 1s/2.5s", i, o.LeftAt, o.JoinedAt)
		}
		if o.Sampling >= 0 && o.Sampling <= o.JoinedAt {
			t.Fatalf("node %d sampled at %v, before its restart", i, o.Sampling)
		}
	}
}

// TestChurnCrashedNodeRunsNothing crashes one node while it is still
// fetching and restarts it later in the slot. Between the crash and the
// restart the node must run no round, send nothing, and back off no
// peer: it hears no replies while it is down, so every timeout it
// reported would put a live peer into backoff for its next lifetime.
func TestChurnCrashedNodeRunsNothing(t *testing.T) {
	const crashAt, restartAt = 200 * time.Millisecond, 2500 * time.Millisecond
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 80, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Scenario = []ScenarioEvent{
			{Kind: Crash, At: crashAt, Count: 1},
			{Kind: Restart, At: restartAt, Count: 1},
		}
	})
	crashed := -1
	var atCrash, beforeRestart obsv.NodeView
	c.Network().After(crashAt+time.Nanosecond, func() {
		for i := range c.nodes {
			if c.leftAt[i] >= 0 {
				crashed, atCrash = i, c.nodes[i].Metrics()
			}
		}
	})
	c.Network().After(restartAt-time.Nanosecond, func() {
		if crashed >= 0 {
			beforeRestart = c.nodes[crashed].Metrics()
		}
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if crashed < 0 || res.Outcomes[crashed].JoinedAt != restartAt {
		t.Fatalf("node %d did not crash at %v and restart at %v", crashed, crashAt, restartAt)
	}
	if !atCrash.HasSeed || atCrash.Sampled && atCrash.Consolidated {
		t.Fatalf("node %d was not mid-fetch when it crashed: %+v", crashed, atCrash)
	}
	if got, want := len(beforeRestart.Rounds), len(atCrash.Rounds); got != want {
		t.Errorf("node %d ran %d rounds while down", crashed, got-want)
	}
	if got, want := beforeRestart.FetchMsgsSent, atCrash.FetchMsgsSent; got != want {
		t.Errorf("node %d sent %d messages while down", crashed, got-want)
	}
	for _, e := range ring.Events() {
		if int(e.Node) != crashed || e.At <= crashAt || e.At >= restartAt {
			continue
		}
		switch e.Kind {
		case obsv.KindRoundStarted, obsv.KindPeerTimeout:
			t.Errorf("node %d while down: %v at %v (peer %d)", crashed, e.Kind, e.At, e.Peer)
		}
	}
}

// TestChurnComposesWithOutOfView is the SetView-composition fix: with
// both OutOfViewFraction and churn configured, nodes must keep their
// restricted views (not have them overwritten by full churn views), and
// graceful-leave announcements must evolve those same views.
func TestChurnComposesWithOutOfView(t *testing.T) {
	const n = 100
	c := smallCluster(t, n, func(cc *ClusterConfig) {
		cc.OutOfViewFraction = 0.5
		cc.Scenario = []ScenarioEvent{{Kind: Leave, At: time.Second, Count: 3}}
	})
	// The restricted views must have survived churn setup: each node
	// holds the view the cluster drew for it, about half the network.
	views := c.views
	for i, node := range c.Nodes() {
		if node.view != views[i] {
			t.Fatalf("node %d view is not the cluster's drawn view", i)
		}
		in := 0
		for p := 0; p < n; p++ {
			if views[i].Contains(p) {
				in++
			}
		}
		if in > 3*n/4 {
			t.Fatalf("node %d view has %d peers: out-of-view restriction overwritten", i, in)
		}
	}
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn.Leaves != 3 {
		t.Fatalf("leaves=%d, want 3", res.Churn.Leaves)
	}
	for i, o := range res.Outcomes {
		if o.LeftAt < 0 {
			continue
		}
		// The graceful leaver announced its departure: the builder no
		// longer believes it online, and the announcement flood pruned it
		// from (most) peer views that previously contained it.
		if c.builder.view.Contains(i) {
			t.Errorf("builder still believes graceful leaver %d online", i)
		}
		had, still := 0, 0
		for j := range views {
			if j == i {
				continue
			}
			if views[j].Contains(i) {
				still++
			}
			had++
		}
		if still > had/4 {
			t.Errorf("leaver %d still in %d/%d views after announcement", i, still, had)
		}
	}
}

// TestChurnViewRefreshDiscoversJoiner runs two slots with a joiner in
// the first: by the end of the second slot, the join announcement alone
// must have spread the joiner into most restricted views.
func TestChurnViewRefreshDiscoversJoiner(t *testing.T) {
	const n = 80
	c := smallCluster(t, n, func(cc *ClusterConfig) {
		cc.OutOfViewFraction = 0.5
		cc.Scenario = []ScenarioEvent{{Kind: Join, At: 2 * time.Second, Count: 1}}
	})
	res, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	joiner := -1
	for i, o := range res.Outcomes {
		if o.JoinedAt >= 0 {
			joiner = i
		}
	}
	if joiner < 0 {
		t.Fatal("no joiner recorded")
	}
	if _, err := c.RunSlot(2); err != nil {
		t.Fatal(err)
	}
	know := 0
	for i, node := range c.Nodes() {
		if i == joiner {
			continue
		}
		if node.view.Contains(joiner) {
			know++
		}
	}
	if know < (n-1)/2 {
		t.Fatalf("only %d/%d nodes discovered the joiner", know, n-1)
	}
}

// TestChurnRestartReloadsBootstrapView: a restarting node reloads the
// bootstrap view NewCluster drew for it, every node for a full view and
// the drawn subset under OutOfViewFraction, keeps the joiner it learned
// of by announcement, and at the end of the slot holds nothing beyond
// them. While the node is down every other peer leaves its view,
// standing for a table that announcements pruned before the crash.
func TestChurnRestartReloadsBootstrapView(t *testing.T) {
	const n, joinAt, crashAt, restartAt = 80, time.Second / 2, time.Second, 2 * time.Second
	for _, outOfView := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("out-of-view=%v", outOfView), func(t *testing.T) {
			c := smallCluster(t, n, func(cc *ClusterConfig) {
				cc.OutOfViewFraction = outOfView
				cc.Scenario = []ScenarioEvent{
					{Kind: Join, At: joinAt, Count: 1},
					{Kind: Crash, At: crashAt, Count: 1},
					{Kind: Restart, At: restartAt, Count: 1},
				}
			})
			// views reads every node's view as a membership matrix.
			views := func() [][]bool {
				m := make([][]bool, n)
				for i := range m {
					m[i] = make([]bool, n)
					for p := range m[i] {
						m[i][p] = c.views[i].Contains(p)
					}
				}
				return m
			}
			boot := views()
			crashed, joiner, known := -1, -1, false
			c.Network().After(crashAt+time.Nanosecond, func() {
				for i := range c.nodes {
					switch {
					case c.leftAt[i] >= 0:
						crashed = i
					case c.joinedAt[i] >= 0:
						joiner = i
					}
				}
				if crashed < 0 || joiner < 0 {
					return
				}
				known = c.views[crashed].Contains(joiner)
				for p := 0; p < n; p++ {
					if p != joiner {
						c.views[crashed].Remove(p)
					}
				}
			})
			res, err := c.RunSlot(1)
			if err != nil {
				t.Fatal(err)
			}
			reloaded := views()
			if crashed < 0 || res.Outcomes[crashed].JoinedAt != restartAt {
				t.Fatalf("node %d did not crash at %v and restart at %v", crashed, crashAt, restartAt)
			}
			if joiner < 0 || !known {
				t.Fatalf("node %d never learned of a joiner before crashing", crashed)
			}
			if boot[crashed][joiner] {
				t.Fatalf("held-out joiner %d in node %d's view before it joined", joiner, crashed)
			}
			in := 0
			for p := 0; p < n; p++ {
				got, want := reloaded[crashed][p], boot[crashed][p] || p == joiner
				if got != want {
					t.Errorf("restarted node %d: peer %d in view %v, in bootstrap view or joined %v", crashed, p, got, want)
				}
				if boot[crashed][p] {
					in++
				}
			}
			if full := outOfView == 0; full != (in == n-1) {
				t.Fatalf("bootstrap view of node %d holds %d of %d nodes", crashed, in, n-1)
			}
		})
	}
}

// TestChurnBuilderSeedsCrashersNotLeavers: the builder seeds the nodes it
// believes online. A graceful leaver announces its departure and drops
// out of that belief; a crasher is never announced, so the builder keeps
// seeding it in the next slot.
func TestChurnBuilderSeedsCrashersNotLeavers(t *testing.T) {
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 80, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Scenario = []ScenarioEvent{
			{Kind: Crash, At: time.Second, Count: 3},
			{Kind: Leave, At: time.Second, Count: 3},
		}
	})
	first, err := c.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.RunSlot(2)
	if err != nil {
		t.Fatal(err)
	}
	crashed, left := 0, 0
	for _, e := range ring.Events() {
		if e.Kind != obsv.KindChurnEvent {
			continue
		}
		node := int(e.Node)
		switch obsv.ChurnOp(e.Aux) {
		case obsv.ChurnCrash:
			crashed++
			if !c.builder.view.Contains(node) {
				t.Errorf("crasher %d dropped out of the builder's view", node)
			}
		case obsv.ChurnLeave:
			left++
			if c.builder.view.Contains(node) {
				t.Errorf("graceful leaver %d still in the builder's view", node)
			}
		}
		if c.engine.Online(node) {
			t.Errorf("departed node %d reads online", node)
		}
	}
	if crashed != 3 || left != 3 {
		t.Fatalf("traced %d crashes and %d leaves, want 3/3", crashed, left)
	}
	if got, want := second.Seeding.NodesSeeded, first.Seeding.NodesSeeded-3; got != want {
		t.Fatalf("builder seeded %d nodes after the departures, want %d (all but the leavers)", got, want)
	}
}

// TestViewsRetainLittleHeap builds 2,000-node clusters with drawn views
// and with an active churn config: each must retain, after GC, within
// 10 % of the heap the same cluster retains without either. A view
// materialized as a set of peers is O(N) per node, and at this size
// those sets alone would retain more than the rest of the cluster.
func TestViewsRetainLittleHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 2,000-node clusters")
	}
	const n = 2000
	retained := func(mutate func(*ClusterConfig)) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := smallCluster(t, n, mutate)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return after.HeapAlloc - before.HeapAlloc
	}
	static := retained(nil)
	for _, tc := range []struct {
		name   string
		mutate func(*ClusterConfig)
	}{
		{"out-of-view", func(cc *ClusterConfig) { cc.OutOfViewFraction = 0.2 }},
		{"churn", func(cc *ClusterConfig) {
			cc.Churn = &membership.Config{MeanSession: 5 * SlotDuration, MeanDowntime: SlotDuration}
		}},
	} {
		got := retained(tc.mutate)
		t.Logf("%s: %.1f MB retained, %.1f MB static", tc.name, float64(got)/1e6, float64(static)/1e6)
		if float64(got) > 1.1*float64(static) {
			t.Errorf("%s: %.1f MB retained, more than 10 %% over the static cluster's %.1f MB",
				tc.name, float64(got)/1e6, float64(static)/1e6)
		}
	}
}
