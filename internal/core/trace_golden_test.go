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
func tracedRegime(t *testing.T, n int, real bool, mutate func(*ClusterConfig)) (*Cluster, []byte) {
	t.Helper()
	var events []obsv.Event
	c := goldenCluster(t, n, real, func(cc *ClusterConfig) {
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
// of 2.5 slots, a slot of downtime, half the departures crashes) with
// peer health on and a tenth of the nodes laggards. Three fifths of the
// nodes are dead, so live nodes fetch long enough for reply deadlines to
// expire and peers to be backed off.
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
			_, first := tracedRegime(t, 150, false, tc.mutate)
			if _, second := tracedRegime(t, 150, false, tc.mutate); !bytes.Equal(first, second) {
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
		real   bool
		mutate func(*ClusterConfig)
		// check, when set, asserts the regime exercised what it is there for.
		check func(t *testing.T, c *Cluster, trace []byte)
		want  string
	}{
		{"sparse-dead-liveness", 150, false, sparseDeadLiveness, nil,
			"37feb5b5688498ea837174f9ebff324ce4077087665eb3626b95fdf3241b3450"},
		{"garbage-peers", 100, true, garbagePeers, nil,
			"a99971f621e277cc47bd2adb6e7186d5db39b624b1e12b9fad0ce3b4e42244df"},
		{"churn-adversaries", 150, false, churnAdversaries, checkChurnAdversaries,
			"e4f8737c9863cbfb3c13c23b5224c9c814a015aeb2f9b30c7fa88e791d9e893c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, trace := tracedRegime(t, tc.n, tc.real, tc.mutate)
			if tc.check != nil {
				tc.check(t, c, trace)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != tc.want {
				t.Fatalf("trace changed (%d bytes):\n got  %s\n want %s", len(trace), got, tc.want)
			}
		})
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
