package baseline

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/dht"
	"pandas/internal/simnet"
)

func testBaseConfig(n int) core.ClusterConfig {
	return core.ClusterConfig{
		Core:     core.TestConfig(),
		N:        n,
		Seed:     11,
		LossRate: simnet.DefaultLossRate,
	}
}

func TestGossipClusterSamplingCompletes(t *testing.T) {
	g, err := NewGossipCluster(testBaseConfig(120))
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 120 {
		t.Fatalf("samples = %d", len(res.Outcomes))
	}
	done := 0
	for _, s := range outcomesSampling(res) {
		if s >= 0 {
			done++
		}
	}
	// Gossip dissemination should allow most nodes to finish the slot;
	// the interesting comparison (deadline rate) happens in experiments.
	if frac := float64(done) / 120; frac < 0.8 {
		t.Fatalf("only %.0f%% finished sampling at all", frac*100)
	}
	if res.BuilderBytes == 0 {
		t.Fatal("builder sent nothing")
	}
}

func TestGossipSlowerThanPandasAtTail(t *testing.T) {
	// The paper's headline comparison: PANDAS completes sampling faster
	// than GossipSub-based dissemination.
	cfg := testBaseConfig(120)
	g, err := NewGossipCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resG, err := g.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := pandasCluster(t, cfg).RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := cfg.Core.Deadline
	if rp, rg := resP.DeadlineRate(deadline), resG.DeadlineRate(deadline); rp < rg {
		t.Fatalf("PANDAS (%v) should meet the deadline at least as often as GossipSub (%v)", rp, rg)
	}
}

func TestDHTClusterSamplingCompletes(t *testing.T) {
	d, err := NewDHTCluster(testBaseConfig(80))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, s := range outcomesSampling(res) {
		if s >= 0 {
			done++
		}
	}
	if frac := float64(done) / 80; frac < 0.8 {
		t.Fatalf("only %.0f%% completed DHT sampling", frac*100)
	}
	// Multi-hop retrieval must show up as message overhead.
	total := 0
	for _, o := range res.Outcomes {
		total += o.FetchMsgs
	}
	if total == 0 {
		t.Fatal("no DHT messages recorded")
	}
}

// TestDHTClusterDeterministic: two clusters built from the same seed
// report equal outcomes. The per-node GETs used to be scheduled in map
// iteration order, which moved the dht rows of fig12/fig14 run to run.
func TestDHTClusterDeterministic(t *testing.T) {
	run := func() *core.SlotResult {
		d, err := NewDHTCluster(testBaseConfig(60))
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.RunSlot(1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different DHT outcomes")
	}
}

func TestDHTSlowerThanGossipOrPandas(t *testing.T) {
	cfg := testBaseConfig(80)
	d, err := NewDHTCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resD, err := d.RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := pandasCluster(t, cfg).RunSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	// Compare median sampling times: PANDAS must win.
	medP := median(outcomesSampling(resP))
	medD := median(outcomesSampling(resD))
	if medP <= 0 || medD <= 0 {
		t.Fatalf("invalid medians %v %v", medP, medD)
	}
	if medP > medD {
		t.Fatalf("PANDAS median %v slower than DHT %v", medP, medD)
	}
}

// pandasCluster is the PANDAS deployment at a baseline test's values.
func pandasCluster(t *testing.T, cfg core.ClusterConfig) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGossipClusterIsPairedWithPandas: at one configuration the GossipSub
// deployment has the PANDAS deployment's custody table, and node i samples
// the same cells in the same slot in both.
func TestGossipClusterIsPairedWithPandas(t *testing.T) {
	cfg := testBaseConfig(60)
	g, err := NewGossipCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := pandasCluster(t, cfg)
	for i := 0; i < cfg.N; i++ {
		if a, b := g.Table().Assignment(i), pc.Table().Assignment(i); !reflect.DeepEqual(a, b) {
			t.Fatalf("node %d: gossipsub custody %v, pandas %v", i, a, b)
		}
	}
	for slot := uint64(1); slot <= 2; slot++ {
		if _, err := g.RunSlot(slot); err != nil {
			t.Fatal(err)
		}
		if _, err := pc.RunSlot(slot); err != nil {
			t.Fatal(err)
		}
		for i, nd := range pc.Nodes() {
			if got, want := g.nodes[i].Samples(), nd.Samples(); !slices.Equal(got, want) {
				t.Fatalf("slot %d node %d: gossipsub samples %v, pandas %v", slot, i, got, want)
			}
		}
	}
}

// TestDHTSamplesFollowTheNodeStream: a DHT node draws the cells a PANDAS
// node draws in the same slot, so it draws new cells every slot.
func TestDHTSamplesFollowTheNodeStream(t *testing.T) {
	cfg := testBaseConfig(40)
	d, err := NewDHTCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc := pandasCluster(t, cfg)
	var prev [][]blob.CellID
	for slot := uint64(1); slot <= 2; slot++ {
		if _, err := d.RunSlot(slot); err != nil {
			t.Fatal(err)
		}
		if _, err := pc.RunSlot(slot); err != nil {
			t.Fatal(err)
		}
		for i, nd := range pc.Nodes() {
			if got, want := d.samples[i], nd.Samples(); !slices.Equal(got, want) {
				t.Fatalf("slot %d node %d: dht samples %v, pandas %v", slot, i, got, want)
			}
			if prev != nil && slices.Equal(prev[i], d.samples[i]) {
				t.Fatalf("node %d sampled the same cells in slots 1 and 2: %v", i, prev[i])
			}
		}
		prev = slices.Clone(d.samples)
	}
}

// TestDHTSamplesMoreCellsThanParcels: at the test geometry 20 samples
// outnumber the 16 parcels; a node GETs the parcels covering its cells
// and the slot ends.
func TestDHTSamplesMoreCellsThanParcels(t *testing.T) {
	cfg := testBaseConfig(40)
	cfg.Core.Samples = 20
	d, err := NewDHTCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *core.SlotResult, 1)
	go func() {
		res, err := d.RunSlot(1)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && res.DeadlineRate(12*time.Second) < 0.8 {
			t.Fatalf("only %.0f%% completed DHT sampling", 100*res.DeadlineRate(12*time.Second))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunSlot did not return within 10 s")
	}
}

// TestDHTBuilderHasClusterBuilderID: the DHT builder is the PANDAS
// builder, so a lookup for the PANDAS builder's ID ends at its vertex.
func TestDHTBuilderHasClusterBuilderID(t *testing.T) {
	cfg := testBaseConfig(40)
	cfg.LossRate = 0
	d, err := NewDHTCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewDeployment(cfg.Core, cfg.Seed, cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	want := dht.Entry{ID: dep.BuilderID, Addr: cfg.N}
	var got []dht.Entry
	d.peers[0].Lookup(want.ID, func(es []dht.Entry) { got = es })
	d.net.Run(time.Minute)
	if len(got) == 0 || got[0] != want {
		t.Fatalf("closest entry to the builder's ID: %v, want %v", got, want)
	}
}

func TestParcelMapping(t *testing.T) {
	n := 32
	if parcelOf(blob.CellID{Row: 0, Col: 0}, n) != 0 {
		t.Fatal("first cell should be parcel 0")
	}
	if parcelOf(blob.CellID{Row: 2, Col: 0}, n) != 1 {
		t.Fatal("cell 64 should start parcel 1")
	}
	k1 := parcelKey(1, 0)
	k2 := parcelKey(1, 1)
	k3 := parcelKey(2, 0)
	if k1 == k2 || k1 == k3 {
		t.Fatal("parcel keys must be distinct")
	}
	if parcelKey(1, 0) != k1 {
		t.Fatal("parcel keys must be deterministic")
	}
}

func median(s []time.Duration) time.Duration {
	var ok []time.Duration
	for _, v := range s {
		if v >= 0 {
			ok = append(ok, v)
		}
	}
	if len(ok) == 0 {
		return -1
	}
	for i := 1; i < len(ok); i++ {
		for j := i; j > 0 && ok[j] < ok[j-1]; j-- {
			ok[j], ok[j-1] = ok[j-1], ok[j]
		}
	}
	return ok[len(ok)/2]
}

func outcomesSampling(res *core.SlotResult) []time.Duration {
	out := make([]time.Duration, len(res.Outcomes))
	for i, o := range res.Outcomes {
		out[i] = o.Sampling
	}
	return out
}
