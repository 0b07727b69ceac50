// Command bench is the repository's slot-budget benchmark: one process
// runs one workload as a closed loop of slots (the next slot starts when
// the previous returns) and prints the workload's end-to-end metrics, or
// with -trace 1 its per-layer metrics, as the last line of stdout. See
// README.md for the workloads, the metric definitions and the recorded
// baseline; BENCHMARK.json at the repository root declares the same
// metric names with their regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setups is how many times a run builds its system under test and runs
// the unmeasured warm-up slot; setup_s is the median of the repeats, and
// the last build is the one the measured slots run on.
const setups = 3

// workload is one benchmark scenario. build constructs the system under
// test and runs no slot; runSlot runs one slot to completion and reports
// what its nodes observed; verify checks the state the last slot left
// behind; close releases sockets and goroutines.
type workload interface {
	build(seed int64, quick bool, tr *tracer) error
	runSlot(slot uint64) (slotResult, error)
	verify() error
	close()
}

// workloadSpec names a workload and sizes its run: refSlotSeconds is the
// wall-clock cost of one slot on the reference box, so a run of
// -seconds s measures round(s/refSlotSeconds) slots — a fixed count, so
// that simulated-clock metrics repeat bit-exactly for a seed on any
// machine.
type workloadSpec struct {
	name           string
	refSlotSeconds float64
	new            func() workload
}

var workloadSpecs = []workloadSpec{
	{"builder_slot", 0.47, func() workload { return &builderSlot{} }},
	{"sim_dense", 1.94, func() workload { return &simWorkload{dense: true} }},
	{"sim_real_faulty", 1.04, func() workload { return &simWorkload{} }},
	{"udp_local", 0.70, func() workload { return &udpLocal{} }},
}

// Network sizes. They are chosen so that one slot, and therefore the
// warm-up slot inside each of the three set-ups, costs a second or two.
const (
	denseNodes  = 1500
	faultyNodes = 160
	udpNodes    = 128
)

// topologySeed fixes the simulator workloads' latency topology.
const topologySeed = 20250703

func specByName(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// measuredSlots is the fixed slot count of a run.
func (s workloadSpec) measuredSlots(seconds int, quick bool) int {
	if quick {
		return 2
	}
	n := int(float64(seconds)/s.refSlotSeconds + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: builder_slot, sim_dense, sim_real_faulty or udp_local")
		seed      = flag.Int64("seed", 7, "workload seed, the only source of randomness")
		seconds   = flag.Int("seconds", 20, "reference-box seconds of measured slots; fixes the slot count")
		trace     = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		quick     = flag.Bool("quick", false, "1/10-scale smoke run (tests); its numbers mean nothing")
		selfcheck = flag.Bool("selfcheck", false, "run every workload three times at -seed and compare each end-to-end metric's spread with its bound")
		seeds     = flag.Int("seeds", 0, "with -selfcheck: run once at each of this many seeds from -seed up, and report quartile spreads as the driver does")
		outDir    = flag.String("out", "bench/out", "directory for the traced run's spans, events and CPU profile")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds, *seeds))
	}
	spec, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(spec, *seed, *seconds, *trace == 1, *quick, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is a finished run. Only the four fields the driver reads are in
// the final JSON line; the rest is printed above it.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	workload string
	seed     int64
	slots    int
	notes    []string
	machine  machineInfo
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload=%s seed=%d measured_slots=%d\n", r.workload, r.seed, r.slots)
	mj, _ := json.Marshal(r.machine) // a struct of strings and numbers cannot fail to marshal
	fmt.Fprintf(w, "machine=%s\n", mj)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", line)
}

// run executes one workload in this process: machine block and
// calibration, the repeated set-up, the measured slots, the per-slot
// correctness checks, and (traced) the profile attribution and probes.
func run(spec workloadSpec, seed int64, seconds int, traced, quick bool, outDir string) (*result, error) {
	runtime.GOMAXPROCS(2)
	res := &result{workload: spec.name, seed: seed, Metrics: metrics{}}
	res.machine = readMachine()
	calibBefore := runCalibration()

	tr := newTracer()
	tr.enable(traced)
	var (
		w          workload
		setupTimes []float64
	)
	nSetups := setups
	if quick {
		nSetups = 1
	}
	for i := 0; i < nSetups; i++ {
		if w != nil {
			w.close()
			w = nil
			// Return the previous build's memory before the next one
			// grows the heap, so peak_rss_mb is one build, not three.
			debug.FreeOSMemory()
		}
		begin := time.Now()
		w = spec.new()
		sp := tr.open("setup", 0)
		if err := w.build(seed, quick, tr); err != nil {
			w.close()
			return nil, fmt.Errorf("build: %w", err)
		}
		// Slot 0 is the warm-up: codec tables, arenas, pools and the
		// decode-matrix LRU fill here, inside setup_s.
		if _, err := w.runSlot(0); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up slot: %w", err)
		}
		tr.end(sp)
		setupTimes = append(setupTimes, time.Since(begin).Seconds())
	}
	defer w.close()
	tr.enable(false)

	slots := spec.measuredSlots(seconds, quick)
	res.slots = slots
	agg := &aggregate{}
	untraced := 0
	if traced {
		// The first quarter of the slots runs with tracing and profiling
		// off; the ratio of the two per-slot walls is the overhead.
		untraced = max(1, slots/4)
	}
	var prof *cpuProfile
	for i := 1; i <= slots; i++ {
		if traced && i == untraced+1 {
			tr.enable(true)
			var err error
			if prof, err = startCPUProfile(outDir, spec.name, seed); err != nil {
				return nil, err
			}
			defer prof.stop()
		}
		sp := tr.open("slot", i)
		before := takeSnapshot()
		sr, err := w.runSlot(uint64(i))
		used := takeSnapshot().since(before)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", i, err)
		}
		agg.add(sr, used, traced && i > untraced)
		if err := w.verify(); err != nil {
			res.notes = append(res.notes, fmt.Sprintf("slot %d: verification failed: %v", i, err))
			agg.incorrect = true
		}
	}
	var shares *profileShares
	if prof != nil {
		var err error
		if shares, err = prof.stopAndAttribute(); err != nil {
			return nil, err
		}
	}
	if f, ok := w.(interface{ finish(next uint64) error }); ok {
		sp := tr.open("finish", slots+1)
		err := f.finish(uint64(slots + 1))
		tr.end(sp)
		if err != nil {
			res.notes = append(res.notes, fmt.Sprintf("final check failed: %v", err))
			agg.incorrect = true
		}
	}
	tr.enable(false)
	calibAfter := runCalibration()

	res.Correct = !agg.incorrect
	res.Attempted, res.Failed = agg.attempted, agg.failed
	res.machine.LoadEnd = readFirstLine("/proc/loadavg")
	res.notes = append(res.notes, agg.notes(spec.name)...)
	res.notes = append(res.notes, fmt.Sprintf("calibration before/after the slots: sha %.2f/%.2f ms, stream %.2f/%.2f ms, chase %.2f/%.2f ms",
		calibBefore.shaMs, calibAfter.shaMs, calibBefore.streamMs, calibAfter.streamMs, calibBefore.chaseMs, calibAfter.chaseMs))
	if !traced {
		agg.endToEnd(res.Metrics, median(setupTimes))
		return res, nil
	}
	agg.perLayer(res.Metrics, untraced)
	shares.emit(res.Metrics)
	tr.emit(res.Metrics, slots-untraced)
	runProbes(spec.name, seed, quick, res.Metrics)
	res.Metrics.put("bench.setup_first_s", setupTimes[0])
	res.Metrics.put("machine.calib_sha_ms", (calibBefore.shaMs+calibAfter.shaMs)/2)
	res.Metrics.put("machine.calib_stream_ms", (calibBefore.streamMs+calibAfter.streamMs)/2)
	res.Metrics.put("machine.calib_chase_ms", (calibBefore.chaseMs+calibAfter.chaseMs)/2)
	res.Metrics.fillMissing()
	if err := tr.writeJSONL(outDir, spec.name, seed); err != nil {
		return nil, err
	}
	return res, nil
}
