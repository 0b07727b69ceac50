package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. Safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be non-negative).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBounds are histogram bucket upper bounds (seconds) suited
// to protocol phase latencies: sub-second resolution up to the 4 s
// attestation deadline, then the 12 s slot.
var DefaultLatencyBounds = []float64{
	0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1, 1.5, 2, 3, 4, 6, 8, 12,
}

// Histogram accumulates observations into fixed upper-bound buckets
// (Prometheus cumulative-bucket semantics). Safe for concurrent use.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Int64, len(b)+1), // +1 for the +Inf bucket
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry is a get-or-create store of named metrics. Metric handles are
// stable: callers may look one up once and keep the pointer on a hot
// path. Safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	cnt   map[string]*Counter
	gauge map[string]*Gauge
	hist  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		cnt:   make(map[string]*Counter),
		gauge: make(map[string]*Gauge),
		hist:  make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.cnt[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.cnt[name]; c == nil {
		c = &Counter{}
		r.cnt[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauge[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauge[name]; g == nil {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket upper bounds if needed. Bounds are ignored on lookup
// of an existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hist[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hist[name]; h == nil {
		h = newHistogram(bounds)
		r.hist[name] = h
	}
	return h
}

// HistSnapshot is a point-in-time copy of one histogram.
type HistSnapshot struct {
	Bounds  []float64 // sorted upper bounds (exclusive of +Inf)
	Buckets []int64   // per-bound counts; last entry is the +Inf bucket
	Count   int64
	Sum     float64
}

// Snapshot is a point-in-time, read-only copy of a Registry's values.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
}

// Snapshot copies every metric's current value. The result is detached:
// later metric updates do not affect it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.cnt)),
		Gauges:     make(map[string]int64, len(r.gauge)),
		Histograms: make(map[string]HistSnapshot, len(r.hist)),
	}
	for name, c := range r.cnt {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauge {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hist {
		hs := HistSnapshot{
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]int64, len(h.buckets)),
			Count:   h.Count(),
			Sum:     h.Sum(),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// ServeHTTP serves the registry's current snapshot as Prometheus text
// exposition, so a registry mounts directly at /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.Snapshot().WritePrometheus(w) // a failed write means the client went away
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), metrics sorted by name.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, ub := range h.Bounds {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
				name, strconv.FormatFloat(ub, 'g', -1, 64), cum); err != nil {
				return err
			}
		}
		cum += h.Buckets[len(h.Buckets)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
			name, strconv.FormatFloat(h.Sum, 'g', -1, 64), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
