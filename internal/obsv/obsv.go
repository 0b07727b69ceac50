// Package obsv is the protocol-wide observability layer: a typed,
// slot-scoped event trace, a counters/gauges/histograms registry with
// snapshot semantics, and exporters (JSONL traces, Prometheus text
// exposition, per-slot timeline reconstruction).
//
// The paper's whole evaluation (Section 8) is built from per-node timing
// observations — when the seed arrived, how each fetch round progressed,
// when sampling concluded. This package makes those observations a
// first-class data flow instead of ad-hoc counters: every protocol layer
// records Events through a Recorder injected via core.Config, the
// lock-free Ring keeps the most recent events, and Timeline turns a
// recorded trace back into exactly the per-phase duration series the
// figures aggregate.
//
// Tracing is strictly opt-in. The default Recorder is nil and every
// emission site guards with a single nil check, so the disabled path
// costs ~1 ns and zero allocations (TestEmitDisabledCost and
// TestEmitDisabledZeroAllocs hold it there).
package obsv

// Recorder receives protocol trace events. Implementations must be safe
// for concurrent producers (the UDP transport runs per-endpoint loops);
// the simulator's single-threaded event loop is the trivial case.
//
// A nil Recorder means "tracing off": every call site performs one nil
// check and nothing else.
type Recorder interface {
	// Record appends one event to the trace. It must not block and must
	// not retain references into the caller's memory beyond the call.
	Record(Event)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(Event)

// Record implements Recorder.
func (f RecorderFunc) Record(e Event) { f(e) }
