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
// fixed-seed slots in three regimes and compares a digest of every live
// node's complete metrics view with the value recorded from the stable-sort,
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
				msgs: 228185, bytes: 35411153, rounds: 5,
				digest: "ff1d11eb420886c210d4f066cc2d383da46012b67ee870326ed30e46058268c1",
			},
		},
		{
			// Ten holders per line, four fifths of them dead, liveness
			// scoring on (it rides the churn subsystem; one late flash
			// leave activates it). Only live nodes are digested, so the
			// re-arms have to happen on live nodes. Measured with counters,
			// the 30 live nodes fire 12 of the periodic 8-round re-arms and
			// 112 of the empty-plan re-arms in the first slot, 9 and 129 in
			// the second. At a fifth dead no live node passes round 5, and
			// at three fifths they fire empty-plan re-arms only.
			name: "sparse-dead-liveness", n: 150,
			mutate: func(cc *ClusterConfig) {
				cc.DeadFraction = 0.8
				cc.Churn = &membership.Config{
					Flash:           []membership.FlashEvent{{At: 3 * time.Second, Leave: 1}},
					RefreshInterval: -1,
				}
			},
			check: func(t *testing.T, _ *Cluster, g goldenTotals) {
				if g.rounds < 9 {
					t.Fatalf("sparse regime: live nodes reached only %d rounds, the re-arm needs 9", g.rounds)
				}
			},
			want: goldenTotals{
				msgs: 13250, bytes: 1073222, rounds: 50,
				digest: "d097093cfc0ab64c98115f829a7e832cf9f5b334f1913f320d23f32a234a9580",
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
				msgs: 10352, bytes: 1842060, rounds: 5,
				digest: "264ed0f263217de40916746fe57331bf2c3190f41a07895932df93187f19404e",
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

// goldenTotals is a digest of every live node's metrics view over the run,
// with a few totals beside it so that a mismatch says roughly what moved.
type goldenTotals struct {
	msgs    int   // fetch messages sent, all live nodes and slots
	bytes   int64 // fetch bytes sent
	rounds  int   // most rounds any live node ran in one slot
	rejects int   // cells rejected for a bad proof
	digest  string
}

// goldenRun digests live nodes only: a dead node's own view is nothing
// any other node or any output reads.
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
			o := res.Outcomes[i]
			if o.Dead {
				continue
			}
			v := n.Metrics()
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
