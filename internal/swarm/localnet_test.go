package swarm

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
)

// localnetTestConfig is the dense small geometry the end-to-end test
// uses: 16x16 extended matrix, 4+4 custody lines, so 16 nodes give every
// line ~4 holders.
func localnetTestConfig() core.Config {
	cfg := core.TestConfig()
	cfg.Blob = blob.Params{K: 8, CellBytes: 64, ProofBytes: 48}
	cfg.Assign = assign.Params{Rows: 4, Cols: 4, N: 16}
	cfg.Samples = 6
	return cfg
}

// applyLinkPolicy installs a deterministic link policy on every endpoint
// (nodes and builder) of a localnet.
func applyLinkPolicy(ln *Localnet, mk func(self int) func(to int, data []byte) (bool, time.Duration)) {
	for i, h := range ln.hosts {
		h.Endpoint.SetLinkPolicy(mk(i))
	}
}

// TestLocalnetSlotEndToEnd runs a REAL slot over loopback UDP sockets:
// real payloads, erasure reconstruction, commitment verification, and
// proposer signatures — the repository's equivalent of the paper's
// cluster deployment (scaled down).
func TestLocalnetSlotEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	cfg := localnetTestConfig()
	ln, err := NewLocalnet(cfg, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	times, err := ln.RunSlot(1, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for i, d := range times {
		if d < 0 {
			incomplete++
			t.Logf("node %d did not finish sampling", i)
		}
	}
	if incomplete > 1 {
		t.Fatalf("%d of %d nodes did not finish sampling", incomplete, len(times))
	}
	// Verify a node actually holds verified custody payloads.
	node := ln.Nodes[0]
	a := ln.Table.Assignment(0)
	l := a.Lines()[0]
	count := node.Store().LineCount(l)
	if count < cfg.Blob.N() {
		t.Fatalf("node 0 line %v incomplete: %d/%d", l, count, cfg.Blob.N())
	}
}

// TestLocalnetUnderPacketLoss drops ~12% of ALL datagrams (seeding
// included) and checks the deployment still completes: lost seed chunks
// are absorbed by the seed-wait timer and the adaptive fetcher's
// retries, exactly the loss-resilience the paper claims for the real
// cluster. Only the happy path was exercised before.
func TestLocalnetUnderPacketLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	ln, err := NewLocalnet(localnetTestConfig(), 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	dropped, total := 0, 0
	applyLinkPolicy(ln, func(self int) func(to int, data []byte) (bool, time.Duration) {
		rng := rand.New(rand.NewSource(1000 + int64(self)))
		return func(to int, data []byte) (bool, time.Duration) {
			drop := rng.Float64() < 0.12
			mu.Lock()
			total++
			if drop {
				dropped++
			}
			mu.Unlock()
			return drop, 0
		}
	})

	times, err := ln.RunSlot(1, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for i, d := range times {
		if d < 0 {
			incomplete++
			t.Logf("node %d did not finish sampling", i)
		}
	}
	mu.Lock()
	t.Logf("dropped %d of %d datagrams", dropped, total)
	if dropped == 0 {
		mu.Unlock()
		t.Fatal("loss injection never fired; the test exercised the happy path")
	}
	mu.Unlock()
	// Retries must absorb the loss for nearly everyone; allow stragglers
	// for the unlucky tail of a real-time run.
	if incomplete > 2 {
		t.Fatalf("%d of %d nodes did not finish sampling under 12%% loss", incomplete, len(times))
	}
}

// TestLocalnetUnderReordering delays each datagram by a random 0-40 ms,
// so responses routinely overtake queries and seed chunks arrive out of
// order. The protocol must tolerate arbitrary interleaving: chunk
// completion is detected by count (not order), and late cells are
// deduplicated.
func TestLocalnetUnderReordering(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	ln, err := NewLocalnet(localnetTestConfig(), 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	applyLinkPolicy(ln, func(self int) func(to int, data []byte) (bool, time.Duration) {
		rng := rand.New(rand.NewSource(2000 + int64(self)))
		var mu sync.Mutex
		return func(to int, data []byte) (bool, time.Duration) {
			mu.Lock()
			d := time.Duration(rng.Int63n(int64(40 * time.Millisecond)))
			mu.Unlock()
			return false, d
		}
	})

	times, err := ln.RunSlot(1, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for i, d := range times {
		if d < 0 {
			incomplete++
			t.Logf("node %d did not finish sampling", i)
		}
	}
	if incomplete > 1 {
		t.Fatalf("%d of %d nodes did not finish sampling under reordering", incomplete, len(times))
	}
	// Every completed node must hold a fully verified custody line
	// despite the scrambled arrival order.
	node := ln.Nodes[0]
	l := ln.Table.Assignment(0).Lines()[0]
	if count := node.Store().LineCount(l); count < ln.Cfg.Blob.N() {
		t.Fatalf("node 0 line %v incomplete after reordering: %d/%d", l, count, ln.Cfg.Blob.N())
	}
}

// TestLocalnetLossAndReorderCombined mixes both impairments at once —
// the closest the loopback harness gets to a congested real network.
func TestLocalnetLossAndReorderCombined(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP test")
	}
	ln, err := NewLocalnet(localnetTestConfig(), 16, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	applyLinkPolicy(ln, func(self int) func(to int, data []byte) (bool, time.Duration) {
		rng := rand.New(rand.NewSource(3000 + int64(self)))
		var mu sync.Mutex
		return func(to int, data []byte) (bool, time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if rng.Float64() < 0.08 {
				return true, 0
			}
			return false, time.Duration(rng.Int63n(int64(25 * time.Millisecond)))
		}
	})

	times, err := ln.RunSlot(1, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	incomplete := 0
	for _, d := range times {
		if d < 0 {
			incomplete++
		}
	}
	if incomplete > 2 {
		t.Fatalf("%d of %d nodes did not finish sampling under loss+reordering", incomplete, len(times))
	}
}
