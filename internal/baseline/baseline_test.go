package baseline

import (
	"reflect"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/simnet"
)

func testBaseConfig(n int) Config {
	return Config{
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
	pc, err := core.NewCluster(core.ClusterConfig{Core: cfg.Core, N: cfg.N, Seed: cfg.Seed, LossRate: cfg.LossRate})
	if err != nil {
		t.Fatal(err)
	}
	resP, err := pc.RunSlot(1)
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
	pc, err := core.NewCluster(core.ClusterConfig{Core: cfg.Core, N: cfg.N, Seed: cfg.Seed, LossRate: cfg.LossRate})
	if err != nil {
		t.Fatal(err)
	}
	resP, err := pc.RunSlot(1)
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
