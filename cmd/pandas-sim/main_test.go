package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pandas/internal/core"
	"pandas/internal/experiments"
	"pandas/internal/obsv"
	"pandas/internal/simnet"
)

// TestRunRejectsBadLists: the unified parsers fail loudly on malformed
// sweep lists instead of silently dropping entries (the old behavior).
func TestRunRejectsBadLists(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig13", "-small", "-sizes", "100,bogus"},
		{"-exp", "fig13", "-small", "-sizes", "100,-3"},
		{"-exp", "fig15a", "-small", "-fractions", "0,1.5"},
		{"-exp", "churn", "-small", "-rates", "0.1,nope"},
		{"-exp", "byzantine", "-small", "-behavior", "sneaky"},
		{"-exp", "all", "-small", "-sizes", "150,zzz"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("accepted %v", args)
		}
	}
	// The retired sampling-gateway experiment and its load-model flags.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "gateway", "-small"}, `unknown experiment "gateway"`},
		{[]string{"-exp", "fig9", "-small", "-clients", "5"}, "flag provided but not defined: -clients"},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope", "-small"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-small"}); err == nil {
		t.Fatal("missing experiment accepted")
	}
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
}

func TestRunConfidenceSmall(t *testing.T) {
	if err := run([]string{"-exp", "confidence", "-small", "-trials", "200"}); err != nil {
		t.Fatal(err)
	}
}

// TestCSVExport: every labelled sample becomes a CSV, including those of
// a result made of parts, which are named by part so fig14's sizes do not
// overwrite each other.
func TestCSVExport(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-exp", "fig11", "-nodes", "60"}, []string{"fig11-adaptive.csv", "fig11-constant.csv"}},
		{[]string{"-exp", "fig14", "-sizes", "30,60"},
			[]string{"fig14-1-pandas.csv", "fig14-2-pandas.csv", "fig14-2-gossipsub.csv", "fig14-2-dht.csv"}},
	} {
		dir := t.TempDir()
		if err := run(append(c.args, "-small", "-slots", "1", "-csv", dir)); err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
				t.Fatalf("%v: missing %s: %v", c.args, want, err)
			}
		}
	}
}

// TestListIsRegistryGenerated: a new table entry shows up in -list
// without touching this command.
func TestListIsRegistryGenerated(t *testing.T) {
	// run prints to stdout; assert on the library output it uses.
	out := experiments.ListText()
	for _, name := range []string{"fig9", "byzantine", "fig13", "churn"} {
		if !strings.Contains(out, name) {
			t.Fatalf("-list output missing %q:\n%s", name, out)
		}
	}
}

// TestRunAllSmokeSmall runs the whole reduced suite through -exp all.
func TestRunAllSmokeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole reduced suite")
	}
	if err := run([]string{"-exp", "all", "-small", "-nodes", "60", "-slots", "1", "-sizes", "50,60"}); err != nil {
		t.Fatal(err)
	}
}

// TestTableFlagsAreDefined: every flag a table entry names (and -list
// prints) is one pandas-sim defines, and no two entries share a name.
func TestTableFlagsAreDefined(t *testing.T) {
	fs := newFlagSet(&settings{})
	seen := map[string]bool{}
	for _, e := range experiments.Table() {
		if seen[e.Name] {
			t.Errorf("experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		for _, f := range e.Flags {
			if !strings.HasPrefix(f, "-") || fs.Lookup(f[1:]) == nil {
				t.Errorf("%s names flag %q, which pandas-sim does not define", e.Name, f)
			}
		}
	}
}

// TestTraceRefusesSeveralDeployments: fig9 runs one cluster per seeding
// policy, so a trace of it would merge three runs; pandas-sim refuses
// before running anything (the trace file is never created).
func TestTraceRefusesSeveralDeployments(t *testing.T) {
	for _, exp := range []string{"fig9", "fig15a", "all"} {
		path := filepath.Join(t.TempDir(), "t.jsonl")
		err := run([]string{"-exp", exp, "-small", "-nodes", "40", "-slots", "1", "-trace", path})
		if err == nil || !strings.Contains(err.Error(), "-trace") {
			t.Fatalf("%s: err = %v, want a -trace refusal", exp, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: trace file written before the refusal (%v)", exp, err)
		}
	}
}

// TestTraceIsOneRun: a traced table1 run records exactly one deployment.
// Its trace, read back as pandas-sim wrote it, gives every node one slot
// start per slot and the phase durations and round counts of the same
// deployment run untraced.
func TestTraceIsOneRun(t *testing.T) {
	const nodes, slots, seed = 40, 2, 7
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := run([]string{"-exp", "table1", "-small", "-nodes", "40", "-slots", "2", "-seed", "7", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obsv.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	starts := map[[2]uint64]int{}
	for _, e := range events {
		if e.Kind == obsv.KindSlotStart {
			starts[[2]uint64{e.Slot, uint64(e.Node)}]++
		}
	}
	if len(starts) != nodes*slots {
		t.Fatalf("slot starts for %d (slot, node) pairs, want %d", len(starts), nodes*slots)
	}
	for k, n := range starts {
		if n != 1 {
			t.Fatalf("slot %d node %d started %d times", k[0], k[1], n)
		}
	}

	// table1's deployment: the reduced geometry, redundant seeding, the
	// paper's loss rate.
	cfg := core.TestConfig()
	cfg.Policy = core.PolicyRedundant
	c, err := core.NewCluster(core.ClusterConfig{Core: cfg, N: nodes, Seed: seed, LossRate: simnet.DefaultLossRate})
	if err != nil {
		t.Fatal(err)
	}
	tl := obsv.NewTimeline(events)
	for slot := uint64(1); slot <= slots; slot++ {
		res, err := c.RunSlot(slot)
		if err != nil {
			t.Fatal(err)
		}
		st := tl.Slot(slot)
		if st == nil {
			t.Fatalf("trace has no slot %d", slot)
		}
		isNode := func(i int) bool { return i < nodes } // the builder has a timeline too
		for phase, want := range map[obsv.Phase]func(core.NodeOutcome) time.Duration{
			obsv.PhaseSeed:          func(o core.NodeOutcome) time.Duration { return o.Seed },
			obsv.PhaseConsolidation: func(o core.NodeOutcome) time.Duration { return o.Consolidation },
			obsv.PhaseSampling:      func(o core.NodeOutcome) time.Duration { return o.Sampling },
		} {
			got := st.Durations(phase, isNode)
			if len(got) != nodes {
				t.Fatalf("slot %d %v: %d nodes traced, want %d", slot, phase, len(got), nodes)
			}
			for i, d := range got {
				if w := want(res.Outcomes[i]); d != w {
					t.Errorf("slot %d node %d %v: trace %v, run %v", slot, i, phase, d, w)
				}
			}
		}
		for i, o := range res.Outcomes {
			if got := st.Node(i).Rounds; got != len(o.Rounds) {
				t.Errorf("slot %d node %d: trace has %d rounds, run %d", slot, i, got, len(o.Rounds))
			}
		}
	}
}
