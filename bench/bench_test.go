package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{3456, 99, 34}, // udp_local: 27 slots of 128 nodes
		{1000, 99, 10}, // exactly ten beyond p99
		{999, 95, 49},  // nine beyond p99: fall back to p95
		{43, 75, 10},   // builder_slot: 43 slots
		{39, 50, 19},   // too few for any tail percentile
		{2, 50, 1},
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestExclusiveQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := exclusiveQuantile(s, 0.25), exclusiveQuantile(s, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got := spreadOf(s, false); got != 1 {
		t.Errorf("quartile spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spreadOf([]float64{9, 10, 12}, true); got != 0.3 {
		t.Errorf("min-max spread = %g, want 0.3", got)
	}
}

// cannedTraces is `go tool pprof -traces` output: a header, then stacks
// innermost frame first, the first line of each carrying the value.
const cannedTraces = `File: pandas-bench
Type: cpu
Time: Sep 26, 2026 at 7:27am (UTC)
Duration: 16.30s, Total samples = 1.00s ( 6.13%)
-----------+-------------------------------------------------------
     400ms   pandas/internal/gf65536.muladdAVX512
             pandas/internal/gf65536.(*MulTable16).MulAdd
             pandas/internal/rs.(*Codec16).Reconstruct
             pandas/internal/blob.ReconstructLine
             pandas/internal/core.(*Store).TryReconstruct
             pandas/internal/core.(*Node).addCells
             pandas/internal/core.(*Node).HandleMessage
             pandas/internal/simnet.(*Engine).Run
             main.(*simWorkload).runSlot
             main.main
-----------+-------------------------------------------------------
     200ms   runtime.mapaccess2_fast64
             pandas/internal/core.(*Node).planRound
             pandas/internal/core.(*Node).runRound
             pandas/internal/simnet.(*Engine).Run
-----------+-------------------------------------------------------
     100ms   slices.insertionSortCmpFunc[go.shape.struct { Peer int; Score int }]
             slices.SortStableFunc[go.shape.[]pandas/internal/fetch.Scored]
             pandas/internal/fetch.PlanLazyFrom
             pandas/internal/core.(*Node).planRound
-----------+-------------------------------------------------------
      50ms   crypto/sha256.block
             pandas/internal/kzg.(*Committer).ProveAll.func1
-----------+-------------------------------------------------------
     150ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      60ms   runtime.futex
             runtime.notesleep
             runtime.schedule
-----------+-------------------------------------------------------
      40ms   pandas/internal/latency.(*Topology).Delay
             pandas/internal/simnet.(*Network).send
`

func TestParseTracesAttribution(t *testing.T) {
	ps, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if ps.total != time.Second {
		t.Fatalf("total = %v, want 1s", ps.total)
	}
	wantOwner := map[string]time.Duration{
		"gf65536":    400 * time.Millisecond, // innermost pandas frame, not rs or core above it
		"core":       200 * time.Millisecond, // map access charged to its caller
		"fetch":      100 * time.Millisecond, // generic sort charged to fetch; its type argument naming fetch.Scored is not a frame
		"kzg":        50 * time.Millisecond,  // worker goroutine whose stack starts at the closure
		"runtime_gc": 150 * time.Millisecond,
		"other":      100 * time.Millisecond, // scheduler, plus a pandas package outside the layer list
	}
	var sum time.Duration
	for layer, want := range wantOwner {
		if got := ps.owner[layer]; got != want {
			t.Errorf("owner[%s] = %v, want %v", layer, got, want)
		}
		sum += ps.owner[layer]
	}
	if sum != ps.total {
		t.Errorf("owner shares sum to %v of %v", sum, ps.total)
	}
	wantCum := map[string]time.Duration{
		"rs.reconstruct.cum_share":             400 * time.Millisecond,
		"core.store_try_reconstruct.cum_share": 400 * time.Millisecond,
		"core.handle_message.cum_share":        400 * time.Millisecond,
		"fetch.plan_lazy.cum_share":            100 * time.Millisecond,
		"kzg.prove_all.cum_share":              50 * time.Millisecond,
		"kzg.verify.cum_share":                 0,
	}
	for name, want := range wantCum {
		if got := ps.cum[name]; got != want {
			t.Errorf("cum[%s] = %v, want %v", name, got, want)
		}
	}
	m := metrics{}
	ps.emit(m)
	total := 0.0
	for name, v := range m {
		if strings.HasSuffix(name, ".cpu_share") {
			total += v.Value
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("cpu_share metrics sum to %g, want 1", total)
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	if _, err := parseTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("a profile without samples parsed without error")
	}
	if _, err := parseTraces(strings.NewReader("-----\n  lots   main.main\n")); err == nil {
		t.Error("a sample value that is not a duration parsed without error")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesDeclarations keeps BENCHMARK.json and decl.go in
// step, and holds the manifest to the limits the driver enforces.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits of 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, decl.go %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, decl.go %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: name %q or unit %q is outside the allowed characters", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s: name %q used twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound of %s does not match decl.go's %g, or is outside (0, 0.25]", kind, g.Name, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metric %s has a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDecls, true)
	check("per_layer", m.PerLayer, perLayerDecls, false)
	largest := 0.0
	for _, d := range endToEndDecls {
		largest = max(largest, d.bound)
	}
	if endToEndDecls[0].name != "setup_s" || endToEndDecls[0].bound != largest {
		t.Error("setup_s must be declared and carry the largest bound")
	}
	if len(m.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json names %d workloads, main.go %d", len(m.Workloads), len(workloadSpecs))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadSpecs[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go %q", i, w.Name, workloadSpecs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestQuickSmoke runs every workload at a tenth of its scale, untraced
// and traced, and checks that each run is correct, fails no operation,
// and emits exactly the declared metric names.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	for _, spec := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			res, err := run(spec, 7, 1, traced, true, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", spec.name, traced, res.Correct, res.Attempted, res.Failed, strings.Join(res.notes, "\n"))
			}
			want := endToEndDecls
			if traced {
				want = perLayerDecls
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", spec.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: declared metric %s not emitted", spec.name, traced, d.name)
				case got.Unit != d.unit:
					t.Errorf("%s: %s emitted in %s, declared in %s", spec.name, d.name, got.Unit, d.unit)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", spec.name, d.name)
				}
			}
			if traced {
				shares := 0.0
				for name, v := range res.Metrics {
					if strings.HasSuffix(name, ".cpu_share") {
						shares += v.Value
					}
				}
				if shares < 0.99 || shares > 1.01 {
					t.Errorf("%s: cpu_share metrics sum to %g, want 1", spec.name, shares)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
			}
		}
	}
}
