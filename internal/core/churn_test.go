package core

import (
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
	inactive := run(&membership.Config{RefreshInterval: time.Second}) // refresh-only: inactive
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
// silently vanished (liveness backoff reroutes them).
func TestChurnCrashMidFetchRound(t *testing.T) {
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Churn = &membership.Config{
			Flash: []membership.FlashEvent{{At: 800 * time.Millisecond, Leave: 10, Crash: true}},
		}
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

// TestChurnJoinAfterSeeding brings initially-offline nodes online at
// 1.5 s — after the builder's seeding pass, before sampling settles.
// Joiners start from an empty store, are excluded from the deadline
// metric, and must still complete sampling purely by fetching.
func TestChurnJoinAfterSeeding(t *testing.T) {
	c := smallCluster(t, 100, func(cc *ClusterConfig) {
		cc.Churn = &membership.Config{
			InitialOfflineFraction: 0.05,
			Flash:                  []membership.FlashEvent{{At: 1500 * time.Millisecond, Join: 5}},
		}
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
// flash-restarts it 1.5 s later (the join falls back to restarting the
// crashed node since the fresh-join pool is empty). The restart must
// resume custody from an EMPTY store — no seed state survives — and the
// generation guard must keep the pre-crash timers from firing into the
// restarted lifetime.
func TestChurnRestartResumesCustodyEmptyStore(t *testing.T) {
	c := smallCluster(t, 80, func(cc *ClusterConfig) {
		cc.Churn = &membership.Config{
			Flash: []membership.FlashEvent{
				{At: time.Second, Leave: 1, Crash: true},
				{At: 2500 * time.Millisecond, Join: 1},
			},
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
// restart the node must run no round, send nothing, and report no peer
// to its liveness scorer: it hears no replies while it is down, so every
// timeout it reported would put a live peer into backoff for its next
// lifetime.
func TestChurnCrashedNodeRunsNothing(t *testing.T) {
	const crashAt, restartAt = 200 * time.Millisecond, 2500 * time.Millisecond
	ring := obsv.MustRing(obsv.DefaultRingSize)
	c := smallCluster(t, 80, func(cc *ClusterConfig) {
		cc.Core.Recorder = ring
		cc.Churn = &membership.Config{
			Flash: []membership.FlashEvent{
				{At: crashAt, Leave: 1, Crash: true},
				{At: restartAt, Join: 1},
			},
			RefreshInterval: -1,
		}
	})
	crashed := -1
	var atCrash, beforeRestart NodeMetrics
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
		cc.Churn = &membership.Config{
			Flash: []membership.FlashEvent{{At: time.Second, Leave: 3}}, // graceful
			// Periodic crawls re-surface departed peers from stale routing
			// tables (by design); disable them to observe announcement
			// pruning in isolation.
			RefreshInterval: -1,
		}
	})
	// The restricted views must have survived churn setup: each node sees
	// at most keep+1 peers, far below the full network.
	views := make([]*membership.LiveView, n)
	for i, node := range c.Nodes() {
		lv, ok := node.view.(*membership.LiveView)
		if !ok {
			t.Fatalf("node %d view is %T, want *membership.LiveView", i, node.view)
		}
		views[i] = lv
		if lv.Len() > n/2+1 {
			t.Fatalf("node %d view has %d peers: out-of-view restriction overwritten", i, lv.Len())
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
		if c.Directory().Believed(i) {
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
// the first: by the end of the second slot, DHT crawls and the join
// announcement must have spread the joiner into most restricted views.
func TestChurnViewRefreshDiscoversJoiner(t *testing.T) {
	const n = 80
	c := smallCluster(t, n, func(cc *ClusterConfig) {
		cc.OutOfViewFraction = 0.5
		cc.Churn = &membership.Config{
			InitialOfflineFraction: 0.03,
			Flash:                  []membership.FlashEvent{{At: 2 * time.Second, Join: 1}},
			RefreshInterval:        3 * time.Second,
			RefreshFanout:          3,
		}
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
