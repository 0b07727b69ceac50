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
// of 2.5 slots, a slot of downtime, half the departures crashes) with the
// default crawl and liveness-scoring settings, a tenth of the nodes
// laggards and a twentieth poisoners. Three fifths of the nodes are dead,
// so live nodes fetch long enough for reply deadlines to expire and the
// scorer to back peers off.
func churnAdversaries(cc *ClusterConfig) {
	cc.Churn = &membership.Config{
		MeanSession:   SlotDuration * 5 / 2,
		MeanDowntime:  SlotDuration,
		CrashFraction: 0.5,
	}
	cc.DeadFraction = 0.6
	cc.Adversary = &adversary.Config{LaggardFraction: 0.1, PoisonFraction: 0.05}
}

// TestTraceDeterministic: two traced runs write byte-equal traces. In the
// liveness regime one round's reply-deadline sweep can expire many peers
// at once; in the churn regime crawls, laggard timers and forged
// announcements interleave with the rounds.
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
			"7e5b1fa679fc86c7808078b4d8ade76c4bb2ba510ea7758163856f21a4199916"},
		{"garbage-peers", 100, true, garbagePeers, nil,
			"3df6b49171ca6cde1d058ec72b25ac8027c5406481995551073581d5ef6d619d"},
		{"churn-adversaries", 150, false, churnAdversaries, checkChurnAdversaries,
			"3a305dc56d9d144f4e57829105d30ec37e1e6951577388d4e5938c063a8afea0"},
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
// restarted nodes, crawled, timed out and demoted peers, and ran laggards
// and poisoners that forged announcements.
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
	for _, k := range []obsv.Kind{obsv.KindViewRefresh, obsv.KindPeerTimeout, obsv.KindPeerDemoted} {
		if kinds[k] == 0 {
			t.Fatalf("churn regime traced no %v event", k)
		}
	}
	laggards, forged := 0, 0
	for i, a := range c.Agents() {
		if c.Behaviors()[i] == adversary.Laggard {
			laggards++
		}
		forged += a.ForgedAnnouncements
	}
	if laggards == 0 || forged == 0 {
		t.Fatalf("churn regime: %d laggards, %d forged announcements, want both > 0", laggards, forged)
	}
}
