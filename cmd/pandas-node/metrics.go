package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pandas/internal/swarm"
)

// samplingBounds are the node_sampling_seconds bucket upper bounds:
// sub-second resolution up to the 4 s attestation deadline, then the
// 12 s slot.
var samplingBounds = [...]float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1, 1.5, 2, 3, 4, 6, 8, 12}

// totals is what -metrics exports: running sums over the slot records the
// host delivers. The event loop adds and the HTTP handler reads, so a
// mutex guards every field.
type totals struct {
	mu      sync.Mutex
	builder bool

	// A node's slots, the sampling times of its completed ones and its
	// proof-verification rejects.
	completed, incomplete, rejects int64
	buckets                        [len(samplingBounds) + 1]int64 // last is +Inf
	samplingSum                    float64

	// The builder's last slot and its seeding counts.
	slot                    uint64
	cells, messages, nbytes int64
}

// add counts one slot's outcome.
func (t *totals) add(o swarm.Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.builder {
		t.slot = o.Slot
		t.cells += int64(o.Seeding.Cells)
		t.messages += int64(o.Seeding.Messages)
		t.nbytes += o.Seeding.Bytes
		return
	}
	if o.Done {
		t.completed++
		s := o.Node.Sampling.Seconds()
		t.buckets[sort.SearchFloat64s(samplingBounds[:], s)]++
		t.samplingSum += s
	} else {
		t.incomplete++
	}
	t.rejects += int64(o.Node.CorruptRejects)
}

// text renders the totals in the Prometheus text exposition format
// (version 0.0.4): counters, then gauges, then the histogram, each group
// sorted by name.
func (t *totals) text() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	metric := func(kind, name string, v int64) {
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", name, kind, name, v)
	}
	if t.builder {
		metric("counter", "builder_seed_bytes_total", t.nbytes)
		metric("counter", "builder_seed_cells_total", t.cells)
		metric("counter", "builder_seed_messages_total", t.messages)
		metric("gauge", "builder_slot", int64(t.slot))
		return b.String()
	}
	metric("counter", "fetch_corrupt_rejects_total", t.rejects)
	metric("counter", "node_slots_completed_total", t.completed)
	metric("counter", "node_slots_incomplete_total", t.incomplete)
	const h = "node_sampling_seconds"
	fmt.Fprintf(&b, "# TYPE %s histogram\n", h)
	cum := int64(0)
	for i, ub := range samplingBounds {
		cum += t.buckets[i]
		fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", h, strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		h, t.completed, h, strconv.FormatFloat(t.samplingSum, 'g', -1, 64), h, t.completed)
	return b.String()
}

// ServeHTTP serves the totals at /metrics.
func (t *totals) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, t.text()) // a failed write means the client went away
}
