package swarm

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"pandas/internal/core"
)

// envWorker re-executes the test binary as a swarm worker: the
// supervisor tests spawn REAL child processes without needing a
// prebuilt pandas-node (the standard helper-process pattern). Its value
// is the worker's behaviour: "1" is a real worker, the rest misbehave
// (misbehave_test.go).
const envWorker = "PANDAS_SWARM_WORKER"

func TestMain(m *testing.M) {
	mode := os.Getenv(envWorker)
	if mode == "" {
		os.Exit(m.Run())
	}
	fs := flag.NewFlagSet("swarm-test-worker", flag.ExitOnError)
	sup := fs.String("swarm", "", "supervisor address")
	index := fs.Int("index", -1, "worker index")
	_ = fs.Parse(os.Args[1:])
	if err := helperWorker(mode, *sup, *index); err != nil {
		fmt.Fprintln(os.Stderr, "swarm-test-worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// testGeometry is dense enough for a handful of processes: an 8x8
// extended matrix with 4+4 custody lines means every line has ~N/2
// holders even at N=6, so sampling never starves for peers (the default
// geometry wants a few dozen nodes for that).
func testGeometry() Geometry {
	return Geometry{
		K:          4,
		Custody:    4,
		Samples:    4,
		CellBytes:  64,
		Redundancy: 4,
		SeedWait:   300 * time.Millisecond,
		Deadline:   4 * time.Second,
	}
}

// selfCommand launches this test binary in worker mode: real workers,
// except that the indexes in modes get that helperWorker mode instead.
func selfCommand(t *testing.T, modes map[int]string) WorkerCommand {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(index int) *exec.Cmd {
		mode := modes[index]
		if mode == "" {
			mode = "1"
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), envWorker+"="+mode)
		return cmd
	}
}

// testLog routes supervisor/worker diagnostics to stderr only under
// -v, keeping quiet CI runs quiet.
func testLog() io.Writer {
	if testing.Verbose() {
		return os.Stderr
	}
	return io.Discard
}

// TestSwarmEndToEnd is the tentpole's acceptance path in miniature: 6
// node processes plus a builder process bootstrap from 3 peers,
// discover the full table over UDP, then complete two real slots —
// seeding, consolidation, and sampling all across process boundaries.
func TestSwarmEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	res, err := Run(Options{
		N:             6,
		Slots:         2,
		Seed:          77,
		Geometry:      testGeometry(),
		BootstrapSize: 3,
		Command:       selfCommand(t, nil),
		Log:           testLog(),
		ScrapeMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlotResults) != 2 {
		t.Fatalf("got %d slot results", len(res.SlotResults))
	}
	for _, sr := range res.SlotResults {
		if sr.Reports < res.N {
			t.Errorf("slot %d: only %d/%d nodes reported", sr.Slot, sr.Reports, res.N)
		}
		if sr.BuilderCells == 0 {
			t.Errorf("slot %d: builder reported no seeded cells", sr.Slot)
		}
		sampled := 0
		for _, oc := range sr.Outcomes {
			if oc.Sampling >= 0 {
				sampled++
			}
		}
		if sampled < res.N-1 {
			t.Errorf("slot %d: only %d/%d nodes sampled", sr.Slot, sampled, res.N)
		}
		sampling := sr.Sampling(res.Geometry.Deadline)
		met, eligible := sampling.Within(res.Geometry.Deadline), sampling.Total()
		if eligible == 0 || met < eligible-1 {
			t.Errorf("slot %d: deadline met %d/%d", sr.Slot, met, eligible)
		}
	}
	if res.TotalRestarts != 0 {
		t.Errorf("unexpected restarts: %d", res.TotalRestarts)
	}
	// The scrape must have harvested real per-worker metrics.
	if res.Metrics.Counters["node_slots_completed_total"] == 0 {
		t.Errorf("merged metrics missing completions: %+v", res.Metrics.Counters)
	}
	t.Logf("\n%s", res.Render())
}

// TestSwarmKillRestart injects process kills mid-slot and checks the
// supervisor restarts the victims, they rejoin the live deployment,
// and by the final slot the whole swarm reports again.
func TestSwarmKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	res, err := Run(Options{
		N:            6,
		Slots:        3,
		Seed:         99,
		Geometry:     testGeometry(),
		KillFraction: 0.34, // 2 of 6 nodes per slot
		KillDelay:    50 * time.Millisecond,
		Command:      selfCommand(t, nil),
		Log:          testLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRestarts < 2 {
		t.Fatalf("expected kill injection to force restarts, got %d", res.TotalRestarts)
	}
	// Every slot after the first must see previously-killed workers back
	// in action: the last slot's report count is the recovery check.
	last := res.SlotResults[len(res.SlotResults)-1]
	if last.Reports < res.N-1 {
		t.Errorf("final slot: only %d/%d nodes reported after restarts", last.Reports, res.N)
	}
	sampled := 0
	for _, oc := range last.Outcomes {
		if oc.Sampling >= 0 {
			sampled++
		}
	}
	if sampled < res.N-2 {
		t.Errorf("final slot: only %d/%d nodes sampled after restarts", sampled, res.N)
	}
	rejoins := 0
	for _, sr := range res.SlotResults {
		rejoins += sr.Rejoined
	}
	t.Logf("restarts=%d rejoins=%d\n%s", res.TotalRestarts, rejoins, res.Render())
}

// TestDeriveIdentitiesMatchAcrossCalls: every process of a swarm derives
// its deployment on its own, so two derivations at one seed must agree on
// who is who and on custody.
func TestDeriveIdentitiesMatchAcrossCalls(t *testing.T) {
	cfg, err := DefaultGeometry().CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewDeployment(cfg, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewDeployment(cfg, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.NumNodes() != 8 {
		t.Fatalf("table size %d", a.Table.NumNodes())
	}
	for i := 0; i < 8; i++ {
		if a.Table.ID(i) != b.Table.ID(i) || !reflect.DeepEqual(a.Table.Assignment(i), b.Table.Assignment(i)) {
			t.Fatalf("node %d identity or custody unstable", i)
		}
		if a.Table.ID(i) == a.BuilderID || a.Table.ID(i) == a.Proposer.ID {
			t.Fatalf("node %d collides with the builder or the proposer", i)
		}
	}
	if a.BuilderID != b.BuilderID || !a.Proposer.Public.Equal(b.Proposer.Public) || a.BuilderID == a.Proposer.ID {
		t.Fatal("builder or proposer identity unstable or shared")
	}
}

func TestRenderEmptyAndPercentile(t *testing.T) {
	r := &Result{N: 4, Slots: 1, Geometry: DefaultGeometry()}
	r.SlotResults = []SlotResult{{Slot: 1}}
	if out := r.Render(); !strings.Contains(out, "n/a") {
		t.Fatalf("empty slot should render n/a:\n%s", out)
	}
	// Percentiles are nearest-rank over the eligible nodes: the dead
	// worker and the mid-slot rejoiner do not count.
	oc := func(sampling time.Duration) core.NodeOutcome {
		return core.NodeOutcome{Sampling: sampling, JoinedAt: -1, LeftAt: -1}
	}
	dead, rejoined := oc(-1), oc(4)
	dead.Dead = true
	rejoined.JoinedAt = 1
	sr := SlotResult{Outcomes: []core.NodeOutcome{oc(3), dead, oc(1), rejoined, oc(2)}}
	d := sr.Sampling(2)
	if d.Total() != 3 || d.Within(2) != 2 {
		t.Fatalf("eligible %d, on time %d", d.Total(), d.Within(2))
	}
	if got := d.Percentile(50); got != 2 {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(99); got != 3 {
		t.Fatalf("p99 = %v", got)
	}
}
