package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pandas/internal/core"
	"pandas/internal/swarm"
)

// TestTotalsText pins the exposition text of both roles, line for line:
// the names, types, bucket bounds and values the node and the builder
// serve at /metrics and write at drain.
func TestTotalsText(t *testing.T) {
	node := &totals{}
	done, late := core.NewNodeOutcome(), core.NewNodeOutcome()
	// Exactly 1 s sits on a bound: sort.SearchFloat64s puts it in le="1".
	done.Sampling, done.CorruptRejects = time.Second, 3
	late.CorruptRejects = 2
	node.add(swarm.Outcome{Slot: 1, Done: true, Node: done})
	node.add(swarm.Outcome{Slot: 2, Node: late})
	want := `# TYPE fetch_corrupt_rejects_total counter
fetch_corrupt_rejects_total 5
# TYPE node_slots_completed_total counter
node_slots_completed_total 1
# TYPE node_slots_incomplete_total counter
node_slots_incomplete_total 1
# TYPE node_sampling_seconds histogram
node_sampling_seconds_bucket{le="0.05"} 0
node_sampling_seconds_bucket{le="0.1"} 0
node_sampling_seconds_bucket{le="0.2"} 0
node_sampling_seconds_bucket{le="0.4"} 0
node_sampling_seconds_bucket{le="0.6"} 0
node_sampling_seconds_bucket{le="0.8"} 0
node_sampling_seconds_bucket{le="1"} 1
node_sampling_seconds_bucket{le="1.5"} 1
node_sampling_seconds_bucket{le="2"} 1
node_sampling_seconds_bucket{le="3"} 1
node_sampling_seconds_bucket{le="4"} 1
node_sampling_seconds_bucket{le="6"} 1
node_sampling_seconds_bucket{le="8"} 1
node_sampling_seconds_bucket{le="12"} 1
node_sampling_seconds_bucket{le="+Inf"} 1
node_sampling_seconds_sum 1
node_sampling_seconds_count 1
`
	if got := node.text(); got != want {
		t.Errorf("node:\n--- got\n%s--- want\n%s", got, want)
	}

	builder := &totals{builder: true}
	builder.add(swarm.Outcome{Slot: 1, Done: true,
		Seeding: core.SeedingReport{Messages: 40, Cells: 64, Bytes: 36_000}})
	builder.add(swarm.Outcome{Slot: 2, Done: true,
		Seeding: core.SeedingReport{Messages: 41, Cells: 64, Bytes: 36_100}})
	want = `# TYPE builder_seed_bytes_total counter
builder_seed_bytes_total 72100
# TYPE builder_seed_cells_total counter
builder_seed_cells_total 128
# TYPE builder_seed_messages_total counter
builder_seed_messages_total 81
# TYPE builder_slot gauge
builder_slot 2
`
	if got := builder.text(); got != want {
		t.Errorf("builder:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestTotalsServedWhileAdding reads /metrics while the event loop's
// callback adds outcomes; under -race it checks the mutex covers both.
func TestTotalsServedWhileAdding(t *testing.T) {
	tot := &totals{}
	srv := httptest.NewServer(tot)
	defer srv.Close()
	get := func() string {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("Content-Type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return string(body)
	}

	const slots = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		oc := core.NewNodeOutcome()
		oc.Sampling = 300 * time.Millisecond
		for s := 1; s <= slots; s++ {
			tot.add(swarm.Outcome{Slot: uint64(s), Done: true, Node: oc})
		}
	}()
	for i := 0; i < 20; i++ {
		get()
	}
	wg.Wait()
	if body := get(); !strings.Contains(body, "\nnode_slots_completed_total 200\n") ||
		!strings.Contains(body, "\nnode_sampling_seconds_count 200\n") {
		t.Fatalf("after %d slots /metrics reads:\n%s", slots, body)
	}
}
