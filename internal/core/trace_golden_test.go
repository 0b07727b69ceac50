package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pandas/internal/obsv"
)

// tracedRegime runs two slots of a TestPlanGolden regime with tracing on
// and returns the whole event stream as JSONL. TestPlanGolden digests the
// metrics views the run ends with; the trace also pins the order and the
// timing of every event on the way there.
func tracedRegime(t *testing.T, n int, real bool, mutate func(*ClusterConfig)) []byte {
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
	return buf.Bytes()
}

// TestTraceDeterministic: two traced runs of the liveness regime, where
// one round's reply-deadline sweep can expire many peers at once, write
// byte-equal traces.
func TestTraceDeterministic(t *testing.T) {
	first := tracedRegime(t, 150, false, sparseDeadLiveness)
	if second := tracedRegime(t, 150, false, sparseDeadLiveness); !bytes.Equal(first, second) {
		t.Fatalf("two runs traced differently (%d and %d bytes)", len(first), len(second))
	}
}

// TestTraceGolden pins the SHA-256 of the JSONL trace of two slots in two
// TestPlanGolden regimes. A change that moves, reorders, adds or drops an
// event moves the digest, even where every metrics view stays the same.
func TestTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		real   bool
		mutate func(*ClusterConfig)
		want   string
	}{
		{"sparse-dead-liveness", 150, false, sparseDeadLiveness,
			"639bcc0aa3c56a481681e7516a652f7b34a0290146abd79beda0fa7fdc8dcc7d"},
		{"garbage-peers", 100, true, garbagePeers,
			"1063e0c93346be0520e949bdf574bce25a79ee16572e2cc8ed93015058c591bb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := tracedRegime(t, tc.n, tc.real, tc.mutate)
			if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != tc.want {
				t.Fatalf("trace changed (%d bytes):\n got  %s\n want %s", len(trace), got, tc.want)
			}
		})
	}
}
