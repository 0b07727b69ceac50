package core

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"pandas/internal/adversary"
	"pandas/internal/blob"
	"pandas/internal/obsv"
	"pandas/internal/wire"
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
//
// Each regime runs in both data planes, metadata cells and real payloads
// (erasure decoding, proof checks), and both must reach the same digest:
// the paper's §8.2 check that its simulator tracks the prototype, made
// exact and per node, since the two planes share one virtual clock.
func TestPlanGolden(t *testing.T) {
	cases := []struct {
		name   string
		n      int
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
				msgs: 242500, bytes: 35835868, rounds: 4,
				digest: "f78508036c0c16cb2ed317de2604492419154df44359c932fb4d7b5688aa69f0",
			},
		},
		{
			// Ten holders per line, four fifths of them dead, so reply
			// deadlines expire and peers are backed off. The late flash
			// leave no longer turns peer health on (every node runs it); it
			// stays so the regime's digest does. Only live nodes are
			// digested, so the re-arms have to happen on live nodes.
			// Measured with counters, the 30 live nodes fire 49 of the
			// periodic 8-round re-arms and 216 of the empty-plan re-arms in
			// the first slot, 31 and 216 in the second. At a fifth dead no live node passes round 5, and
			// at three fifths they fire 34 empty-plan re-arms and one
			// periodic one over the two slots.
			name: "sparse-dead-liveness", n: 150, mutate: sparseDeadLiveness,
			check: func(t *testing.T, _ *Cluster, g goldenTotals) {
				if g.rounds < 9 {
					t.Fatalf("sparse regime: live nodes reached only %d rounds, the re-arm needs 9", g.rounds)
				}
			},
			want: goldenTotals{
				msgs: 17893, bytes: 1356533, rounds: 50,
				digest: "20ed3211b9f2bd254e4206c16a13548d6ce5db5dfe313cf34486d336bae693c6",
			},
		},
		{
			// A fifth of the peers serve cells that fail verification, with
			// real payloads and proposer signatures: rejected cells drop
			// their in-flight markers and the liars are banned (badPeers).
			name: "garbage-peers", n: 100, mutate: garbagePeers,
			check: func(t *testing.T, _ *Cluster, g goldenTotals) {
				if g.rejects == 0 {
					t.Fatal("garbage regime rejected no cell")
				}
			},
			want: goldenTotals{
				msgs: 7468, bytes: 1503208, rounds: 5,
				digest: "12a7cfca504ed98e17905fcf40042cf35681ad6d13d0efe3a70ffde0f2c7323c",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.n > 1000 {
				t.Skip("dense regime skipped in -short mode")
			}
			for _, real := range []bool{false, true} {
				c := goldenCluster(t, tc.n, func(cc *ClusterConfig) {
					if tc.mutate != nil {
						tc.mutate(cc)
					}
					cc.Core.RealPayloads = real
				})
				got := goldenRun(t, c, 2)
				tc.check(t, c, got)
				got.rejects = 0 // asserted above, not pinned
				if got != tc.want {
					t.Fatalf("plans changed (real payloads %v):\n got  %+v\n want %+v", real, got, tc.want)
				}
			}
		})
	}
}

// TestPlannedPeersAreQueryable: in TestPlanGolden's three regimes, every
// query a round sends goes to a peer that queryable accepts against the
// node's state as the round was planned. queryRound is the only state
// the sends change, so each node's table is copied at its round's
// RoundStarted event, after planning and before the sends.
func TestPlannedPeersAreQueryable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		mutate func(*ClusterConfig)
	}{
		{"dense", 1300, nil},
		{"sparse-dead-liveness", 150, sparseDeadLiveness},
		{"garbage-peers", 100, garbagePeers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.n > 1000 {
				t.Skip("dense regime skipped in -short mode")
			}
			var c *Cluster
			planned := map[int]stampTable{}
			c = goldenCluster(t, tc.n, func(cc *ClusterConfig) {
				if tc.mutate != nil {
					tc.mutate(cc)
				}
				cc.Core.Recorder = obsv.RecorderFunc(func(e obsv.Event) {
					if e.Kind == obsv.KindRoundStarted {
						q := c.nodes[e.Node].queryRound
						q.keys, q.vals = slices.Clone(q.keys), slices.Clone(q.vals)
						planned[int(e.Node)] = q
					}
				})
			})
			sent, refused := 0, 0
			for i, n := range c.nodes {
				n.tr = sendHook{Transport: n.tr, hook: func(to int, payload any) {
					if _, ok := payload.(*wire.Query); !ok {
						return
					}
					live := n.queryRound
					n.queryRound = planned[i]
					if !n.queryable(to) {
						refused++
					}
					n.queryRound = live
					sent++
				}}
			}
			for s := uint64(1); s <= 2; s++ {
				if _, err := c.RunSlot(s); err != nil {
					t.Fatal(err)
				}
			}
			if sent == 0 || refused > 0 {
				t.Fatalf("%d of %d queries went to a peer queryable refuses", refused, sent)
			}
		})
	}
}

// sendHook calls hook on every Send before passing it on.
type sendHook struct {
	Transport
	hook func(to int, payload any)
}

func (h sendHook) Send(to, size int, payload any) {
	h.hook(to, payload)
	h.Transport.Send(to, size, payload)
}

// sparseDeadLiveness is TestPlanGolden's re-arm regime.
func sparseDeadLiveness(cc *ClusterConfig) {
	cc.DeadFraction = 0.8
	cc.Scenario = []ScenarioEvent{{Kind: Leave, At: 3 * time.Second, Count: 1}}
}

// garbagePeers is TestPlanGolden's proof-reject regime.
func garbagePeers(cc *ClusterConfig) {
	cc.Core.RealPayloads = true
	cc.VerifySeeds = true
	cc.Adversary = &adversary.Config{GarbageFraction: 0.2}
}

// goldenCluster builds a regime's cluster, with a blob for the builder
// when it runs real payloads.
func goldenCluster(t *testing.T, n int, mutate func(*ClusterConfig)) *Cluster {
	t.Helper()
	c := smallCluster(t, n, mutate)
	if c.cfg.Core.RealPayloads {
		data := make([]byte, c.cfg.Core.Blob.BlobBytes())
		for i := range data {
			data[i] = byte(i * 31)
		}
		if err := c.Builder().PrepareBlob(data); err != nil {
			t.Fatal(err)
		}
	}
	return c
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
