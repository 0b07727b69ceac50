package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pandas/internal/obsv"
)

// span is one timed call into a layer, recorded from this package around
// the call. Spans of one slot share its number; parent is the index of
// the span that caused this one (-1: none).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32
	slot       int32
}

// tracer records spans in memory and writes them out when the run ends.
// While disabled — always, on an untraced run — begin costs one atomic
// load and records nothing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// top is the open top-level span (a set-up or a slot); spans begun
	// while it is open are its children and carry its slot number.
	top, topSlot int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enable(on bool) { t.on.Store(on) }

func (t *tracer) enabled() bool { return t.on.Load() }

// open begins a top-level span — a set-up (slot 0, the warm-up's number)
// or a measured slot — and returns its index, or -1 while disabled.
func (t *tracer) open(name string, slot int) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: -1, slot: int32(slot)})
	id := len(t.spans) - 1
	t.top, t.topSlot = int32(id), int32(slot)
	t.mu.Unlock()
	return id
}

// begin opens a span under the open top-level span and returns its
// index, or -1 while disabled.
func (t *tracer) begin(name string) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: t.top, slot: t.topSlot})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes a span; end(-1) does nothing.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// total sums the durations of the closed spans with the given name that
// belong to a measured slot, and counts them.
func (t *tracer) total(name string) (sum time.Duration, count int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name && s.slot >= 1 && s.end >= 0 {
			sum += s.end - s.start
			count++
		}
	}
	return sum, count
}

// emit fills the metrics that are read off spans, per traced slot.
func (t *tracer) emit(m metrics, tracedSlots int) {
	n := float64(tracedSlots)
	send, _ := t.total("transport.Send")
	handle, _ := t.total("core.Node.HandleMessage")
	m.put("transport.send_busy_ms_per_slot", ms(send)/n)
	m.put("core.handle_busy_ms_per_slot", ms(handle)/n)
	prepare, np := t.total("core.Builder.PrepareBlob")
	seedSlot, ns := t.total("core.Builder.SeedSlot")
	both, nb := t.total("core.Builder.PrepareAndSeed")
	if np > 0 && ns > 0 && nb > 0 {
		p, s, b := ms(prepare)/float64(np), ms(seedSlot)/float64(ns), ms(both)/float64(nb)
		m.put("core.builder_prepare_ms", p)
		m.put("core.builder_seed_ms", s)
		m.put("core.builder_overlap_share", 1-b/(p+s))
	}
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	t.mu.Lock()
	buf := make([]byte, 0, 128)
	for i, s := range t.spans {
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, int64(s.start), 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, int64(s.end), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"slot":`...)
		buf = strconv.AppendInt(buf, int64(s.slot), 10)
		buf = append(buf, "}\n"...)
		_, _ = w.Write(buf) // a failed write resurfaces from Flush
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

// gatedRecorder is the obsv.Recorder handed to the system under test: it
// forwards to a TraceRing only while the tracer is on, so one cluster
// serves the untraced and the traced slots of a traced run.
type gatedRecorder struct {
	tr   *tracer
	ring *obsv.Ring
}

func (g *gatedRecorder) Record(e obsv.Event) {
	if g.tr.enabled() {
		g.ring.Record(e)
	}
}
