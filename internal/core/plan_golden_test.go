package core

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/blob"
	"pandas/internal/membership"
)

// TestPlanGolden pins the fetch plans the round planner emits. A plan is
// not observable directly, but everything downstream of it is: which
// peers a node queries in which round decides every RoundStat, every
// message and byte counter and every completion time. The test runs two
// fixed-seed slots in three regimes and compares a digest of every node's
// complete metrics view with the value recorded from the stable-sort,
// map-based planner this one replaced (commit 6067cbf). Any change to
// candidate order, tie-breaking, windowing, boost admission, in-flight
// accounting or re-arm timing moves the digest.
func TestPlanGolden(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		real   bool // the builder needs a blob
		mutate func(*ClusterConfig)
		// check asserts the regime exercised what it is there for.
		check func(t *testing.T, c *Cluster, g goldenTotals)
		want  goldenTotals
	}{
		{
			// More than maxLineCandidates holders on every line: the
			// rotating holder window truncates and CB-listed peers outside
			// it take the fallback admission path.
			name: "dense", n: 1300,
			check: func(t *testing.T, c *Cluster, _ goldenTotals) {
				l := blob.Line{Kind: blob.Row, Index: 0}
				if h := len(c.Table().Holders(l)); h <= maxLineCandidates {
					t.Fatalf("dense regime has %d holders on %v, want > %d", h, l, maxLineCandidates)
				}
			},
			want: goldenTotals{
				msgs: 320706, bytes: 61537406, rounds: 5,
				digest: "3b0b590184468f6b21ebac24847b6dffed13adc948794b91feae8638f58266e0",
			},
		},
		{
			// Ten holders per line, a fifth of them dead, liveness scoring
			// on (it rides the churn subsystem; one late flash leave
			// activates it). Recorded with counters in the parent: 35 of
			// the periodic 8-round re-arms and 216 of the empty-plan
			// re-arms fire in the first slot.
			name: "sparse-dead-liveness", n: 150,
			mutate: func(cc *ClusterConfig) {
				cc.DeadFraction = 0.2
				cc.Churn = &membership.Config{
					Flash:           []membership.FlashEvent{{At: 3 * time.Second, Leave: 1}},
					RefreshInterval: -1,
				}
			},
			check: func(t *testing.T, _ *Cluster, g goldenTotals) {
				if g.rounds < 9 {
					t.Fatalf("sparse regime reached only %d rounds, the re-arm needs 9", g.rounds)
				}
			},
			want: goldenTotals{
				msgs: 54197, bytes: 5929453, rounds: 50,
				digest: "3e2d46d7b5fa494a2059a974b3e798163f5c32b42de752213c20f40ff5b6c577",
			},
		},
		{
			// A fifth of the peers serve cells that fail verification, with
			// real payloads and proposer signatures: rejected cells drop
			// their in-flight markers and the liars are banned (badPeers).
			name: "garbage-peers", n: 100, real: true,
			mutate: func(cc *ClusterConfig) {
				cc.Core.RealPayloads = true
				cc.VerifySeeds = true
				cc.Adversary = &adversary.Config{GarbageFraction: 0.2}
			},
			check: func(t *testing.T, _ *Cluster, g goldenTotals) {
				if g.rejects == 0 {
					t.Fatal("garbage regime rejected no cell")
				}
			},
			want: goldenTotals{
				msgs: 13972, bytes: 3255764, rounds: 5,
				digest: "7a78b776d6c27721eed9484addd4f5969af42f67c733b79338aa00578f39a5c6",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.n > 1000 {
				t.Skip("dense regime skipped in -short mode")
			}
			c := smallCluster(t, tc.n, tc.mutate)
			if tc.real {
				data := make([]byte, c.cfg.Core.Blob.BlobBytes())
				for i := range data {
					data[i] = byte(i * 31)
				}
				if err := c.Builder().PrepareBlob(data); err != nil {
					t.Fatal(err)
				}
			}
			got := goldenRun(t, c, 2)
			tc.check(t, c, got)
			got.rejects = 0 // asserted above, not pinned
			if got != tc.want {
				t.Fatalf("plans changed:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// goldenTotals is a digest of every node's metrics view over the run,
// with a few totals beside it so that a mismatch says roughly what moved.
type goldenTotals struct {
	msgs    int   // fetch messages sent, all nodes and slots
	bytes   int64 // fetch bytes sent
	rounds  int   // most rounds any node ran in one slot
	rejects int   // cells rejected for a bad proof
	digest  string
}

func goldenRun(t *testing.T, c *Cluster, slots int) goldenTotals {
	t.Helper()
	var g goldenTotals
	h := sha256.New()
	for s := 1; s <= slots; s++ {
		res, err := c.RunSlot(uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range c.Nodes() {
			v := n.Metrics()
			o := res.Outcomes[i]
			fmt.Fprintf(h, "%d/%d %+v %d %d %d\n", s, i, v, o.Seed, o.Consolidation, o.Sampling)
			g.msgs += v.FetchMsgsSent
			g.bytes += v.FetchBytesSent
			g.rounds = max(g.rounds, len(v.Rounds))
			g.rejects += v.CorruptRejects
		}
	}
	g.digest = fmt.Sprintf("%x", h.Sum(nil))
	return g
}
