package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pandas/internal/adversary"
	"pandas/internal/membership"
	"pandas/internal/obsv"
)

// tracedRegime runs two slots of a regime with tracing on and returns the
// cluster and the whole event stream as JSONL. TestPlanGolden digests the
// metrics views the run ends with; the trace also pins the order and the
// timing of every event on the way there.
func tracedRegime(t *testing.T, n int, mutate func(*ClusterConfig)) (*Cluster, []byte) {
	t.Helper()
	var events []obsv.Event
	c := goldenCluster(t, n, func(cc *ClusterConfig) {
		mutate(cc)
		cc.Core.Recorder = obsv.RecorderFunc(func(e obsv.Event) { events = append(events, e) })
	})
	for s := uint64(1); s <= 2; s++ {
		if _, err := c.RunSlot(s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := obsv.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes()
}

// churnAdversaries is churn shaped like the churn experiment's (sessions
// of 2.5 slots, a slot of downtime, half the departures crashes) with a
// tenth of the nodes laggards. Three fifths of the nodes are dead, so
// live nodes fetch long enough for reply deadlines to expire and peers
// to be backed off.
func churnAdversaries(cc *ClusterConfig) {
	cc.Churn = &membership.Config{
		MeanSession:  SlotDuration * 5 / 2,
		MeanDowntime: SlotDuration,
	}
	cc.DeadFraction = 0.6
	cc.Adversary = &adversary.Config{LaggardFraction: 0.1}
}

// TestTraceDeterministic: two traced runs write byte-equal traces. In the
// liveness regime one round's reply-deadline sweep can expire many peers
// at once; in the churn regime restarts, announcements and laggard
// timers interleave with the rounds.
func TestTraceDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*ClusterConfig)
	}{
		{"sparse-dead-liveness", sparseDeadLiveness},
		{"churn-adversaries", churnAdversaries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, first := tracedRegime(t, 150, tc.mutate)
			if _, second := tracedRegime(t, 150, tc.mutate); !bytes.Equal(first, second) {
				t.Fatalf("two runs traced differently (%d and %d bytes)", len(first), len(second))
			}
		})
	}
}

// TestTraceGolden pins the SHA-256 of the JSONL trace of two slots in three
// regimes. A change that moves, reorders, adds or drops an event moves the
// digest, even where every metrics view stays the same.
func TestTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		mutate func(*ClusterConfig)
		// check, when set, asserts the regime exercised what it is there for.
		check func(t *testing.T, c *Cluster, trace []byte)
		want  string
	}{
		{"sparse-dead-liveness", 150, sparseDeadLiveness, nil,
			"2df7c0925d63f76bd1c03879c398981ed71bc123c11741bfd9d447b829864008"},
		{"garbage-peers", 100, garbagePeers, nil,
			"f74b397185766ee0f8f98cb7805b12e22f3c94fd1e3255543d6c720d71204db8"},
		{"churn-adversaries", 150, churnAdversaries, checkChurnAdversaries,
			"ac66fcb58940e84d3175c923f2509b36588c1b92456be3196e9033af9d38708a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, trace := tracedRegime(t, tc.n, tc.mutate)
			if tc.check != nil {
				tc.check(t, c, trace)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != tc.want {
				t.Fatalf("trace changed (%d bytes):\n got  %s\n want %s", len(trace), got, tc.want)
			}
		})
	}
}

// TestPeerDemotedOncePerBackoff: a round traces a backed-off peer it
// skips (KindPeerDemoted) once per backoff, the period the peer's
// KindPeerTimeout starts, however many rounds skip it in that period.
func TestPeerDemotedOncePerBackoff(t *testing.T) {
	_, trace := tracedRegime(t, 150, sparseDeadLiveness)
	events, err := obsv.ReadJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ node, peer int32 }
	backoffs := map[pair]int{} // timeouts so far: the current backoff's number
	demoted := map[pair]int{}  // the backoff of the pair's last demoted event
	total := 0
	for _, e := range events {
		p := pair{e.Node, e.Peer}
		switch e.Kind {
		case obsv.KindPeerTimeout:
			backoffs[p]++
		case obsv.KindPeerDemoted:
			total++
			if backoffs[p] == 0 {
				t.Fatalf("node %d demoted peer %d at %v before any timeout", p.node, p.peer, e.At)
			}
			if last, ok := demoted[p]; ok && last == backoffs[p] {
				t.Fatalf("node %d demoted peer %d twice in backoff %d (again at %v)", p.node, p.peer, last, e.At)
			}
			demoted[p] = backoffs[p]
		}
	}
	if total == 0 {
		t.Fatal("the sparse regime traced no demoted peer")
	}
}

// checkChurnAdversaries asserts the churn regime crashed, left and
// restarted nodes, timed out and demoted peers, and ran laggards.
func checkChurnAdversaries(t *testing.T, c *Cluster, trace []byte) {
	t.Helper()
	if st := c.Engine().Stats(); st.Crashes == 0 || st.Leaves == 0 || st.Restarts == 0 {
		t.Fatalf("churn regime: lifecycle events %+v, want crashes, leaves and restarts", st)
	}
	events, err := obsv.ReadJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obsv.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []obsv.Kind{obsv.KindPeerTimeout, obsv.KindPeerDemoted} {
		if kinds[k] == 0 {
			t.Fatalf("churn regime traced no %v event", k)
		}
	}
	laggards, delayed := 0, 0
	for i, a := range c.Agents() {
		if c.Behaviors()[i] == adversary.Laggard {
			laggards++
		}
		delayed += a.DelayedResponses
	}
	if laggards == 0 || delayed == 0 {
		t.Fatalf("churn regime: %d laggards delayed %d responses, want both > 0", laggards, delayed)
	}
}
