package membership

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

type eventLog struct {
	joins, restarts, leaves, crashes []int
}

func hooksFor(log *eventLog) Hooks {
	return Hooks{
		OnJoin: func(node int, restart bool) {
			if restart {
				log.restarts = append(log.restarts, node)
			} else {
				log.joins = append(log.joins, node)
			}
		},
		OnLeave: func(node int, crash bool) {
			if crash {
				log.crashes = append(log.crashes, node)
			} else {
				log.leaves = append(log.leaves, node)
			}
		},
	}
}

func TestConfigActive(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Active() {
		t.Fatal("nil config active")
	}
	if (&Config{}).Active() {
		t.Fatal("zero config active")
	}
	if !(&Config{MeanSession: time.Second}).Active() {
		t.Fatal("session process inactive")
	}
	// Downtime alone produces no dynamics.
	if (&Config{MeanDowntime: time.Second}).Active() {
		t.Fatal("downtime-only config active")
	}
}

func TestEngineSessionsAndRestarts(t *testing.T) {
	clk := &engineClock{}
	log := &eventLog{}
	e := NewEngine(Config{
		MeanSession:  2 * time.Second,
		MeanDowntime: time.Second,
	}, clk, rand.New(rand.NewSource(42)), 50, hooksFor(log))
	e.Start(0)
	clk.run(60 * time.Second)

	departures := len(log.leaves) + len(log.crashes)
	if departures == 0 {
		t.Fatal("no departures over 60s with 2s mean sessions")
	}
	if len(log.crashes) == 0 || len(log.leaves) == 0 {
		t.Fatalf("crash/graceful split degenerate: %d crashes, %d leaves",
			len(log.crashes), len(log.leaves))
	}
	if len(log.restarts) == 0 {
		t.Fatal("no restarts despite MeanDowntime")
	}
	st := e.Stats()
	if st.Leaves != len(log.leaves) || st.Crashes != len(log.crashes) || st.Restarts != len(log.restarts) {
		t.Fatalf("stats %+v disagree with hook log", st)
	}
	// Online/offline bookkeeping must be consistent.
	online := 0
	for i := 0; i < 50; i++ {
		if e.Online(i) {
			online++
		}
	}
	if online != e.OnlineCount() {
		t.Fatalf("Online() count %d != OnlineCount %d", online, e.OnlineCount())
	}
}

func TestEngineScriptedTransitions(t *testing.T) {
	clk := &engineClock{}
	log := &eventLog{}
	e := NewEngine(Config{}, clk, rand.New(rand.NewSource(3)), 40, hooksFor(log))
	e.Start(20)
	if e.OnlineCount() != 20 {
		t.Fatalf("online %d with 20 held out, want 20", e.OnlineCount())
	}
	clk.After(time.Second, func() { e.Join(5) })
	clk.After(2*time.Second, func() { e.Leave(3, true) })
	clk.run(500 * time.Millisecond)
	if len(log.joins) != 0 {
		t.Fatal("join fired early")
	}
	clk.run(1500 * time.Millisecond)
	if len(log.joins) != 5 {
		t.Fatalf("join brought in %d, want 5", len(log.joins))
	}
	clk.run(3 * time.Second)
	if len(log.crashes) != 3 || len(log.leaves) != 0 {
		t.Fatalf("crash burst: %d crashes %d leaves, want 3 crashes", len(log.crashes), len(log.leaves))
	}
	if e.OnlineCount() != 20+5-3 {
		t.Fatalf("online %d after the transitions", e.OnlineCount())
	}
	// The crashers read offline; the joiners, unless crashed, online.
	for _, node := range log.crashes {
		if e.Online(node) {
			t.Fatalf("crasher %d reads online", node)
		}
	}
	for _, node := range log.joins {
		if !e.Online(node) && !slices.Contains(log.crashes, node) {
			t.Fatalf("joiner %d reads offline", node)
		}
	}
}

func TestEngineRestartBringsBackDeparted(t *testing.T) {
	clk := &engineClock{}
	log := &eventLog{}
	// A crash at 1s, then a restart at 2s must bring the crashed node
	// back. A restart with nobody departed and a join with nobody held
	// out do nothing.
	e := NewEngine(Config{}, clk, rand.New(rand.NewSource(5)), 10, hooksFor(log))
	e.Start(0)
	e.Restart(1)
	e.Join(1)
	clk.After(time.Second, func() { e.Leave(1, true) })
	clk.After(2*time.Second, func() { e.Restart(1) })
	clk.run(3 * time.Second)
	if len(log.crashes) != 1 || len(log.restarts) != 1 || len(log.joins) != 0 {
		t.Fatalf("crashes=%d restarts=%d joins=%d, want 1/1/0", len(log.crashes), len(log.restarts), len(log.joins))
	}
	if log.crashes[0] != log.restarts[0] {
		t.Fatal("restart resurrected a different node than the crash took down")
	}
	if e.OnlineCount() != 10 || !e.Online(log.crashes[0]) {
		t.Fatalf("online %d, node %d online %v; want 10 and true", e.OnlineCount(), log.crashes[0], e.Online(log.crashes[0]))
	}
	// Nobody is departed any more: a further restart does nothing.
	e.Restart(1)
	if len(log.restarts) != 1 {
		t.Fatalf("restart with nobody departed fired %d restarts", len(log.restarts)-1)
	}
}

// TestEngineTimersDieWithTheirLifetime: a session timer armed before a
// scripted crash must not end the session the restart begins. With every
// node crashed at 0.5 s and restarted at 0.6 s, the first session after
// the restart is a fresh exponential draw of mean 1 s; a timer left over
// from the earlier lifetime cuts it short (about 0.7 s on average).
func TestEngineTimersDieWithTheirLifetime(t *testing.T) {
	const n = 1000
	clk := &engineClock{}
	restartAt := make([]time.Duration, n)
	session := make([]time.Duration, n)
	for i := range restartAt {
		restartAt[i], session[i] = -1, -1
	}
	e := NewEngine(Config{MeanSession: time.Second}, clk, rand.New(rand.NewSource(1)), n, Hooks{
		OnJoin: func(node int, restart bool) { restartAt[node] = clk.Now() },
		OnLeave: func(node int, crash bool) {
			if restartAt[node] >= 0 && session[node] < 0 {
				session[node] = clk.Now() - restartAt[node]
			}
		},
	})
	e.Start(0)
	clk.After(500*time.Millisecond, func() { e.Leave(n, true) })
	clk.After(600*time.Millisecond, func() { e.Restart(n) })
	clk.run(30 * time.Second)
	var sum time.Duration
	for i := range session {
		if session[i] < 0 {
			t.Fatalf("node %d: restarted at %v, never departed", i, restartAt[i])
		}
		sum += session[i]
	}
	if mean := sum / n; mean < 900*time.Millisecond || mean > 1100*time.Millisecond {
		t.Fatalf("mean session after the restart %v, want a fresh 1s draw", mean)
	}
}

func TestEngineExclude(t *testing.T) {
	clk := &engineClock{}
	log := &eventLog{}
	e := NewEngine(Config{
		MeanSession:  500 * time.Millisecond,
		MeanDowntime: 500 * time.Millisecond,
	}, clk, rand.New(rand.NewSource(9)), 10, hooksFor(log))
	e.Exclude(3, 4)
	e.Start(0)
	clk.run(30 * time.Second)
	for _, n := range append(append(append(log.joins, log.restarts...), log.leaves...), log.crashes...) {
		if n == 3 || n == 4 {
			t.Fatalf("excluded node %d saw a lifecycle event", n)
		}
	}
	if !e.Online(3) || !e.Online(4) {
		t.Fatal("excluded nodes must stay in construction state")
	}
}

func TestEngineDeterminism(t *testing.T) {
	runOnce := func() ([]int, Stats) {
		clk := &engineClock{}
		log := &eventLog{}
		e := NewEngine(Config{
			MeanSession:  time.Second,
			MeanDowntime: time.Second,
		}, clk, rand.New(rand.NewSource(11)), 30, hooksFor(log))
		e.Start(6)
		clk.After(5*time.Second, func() { e.Join(6) })
		clk.run(20 * time.Second)
		var seq []int
		seq = append(seq, log.joins...)
		seq = append(seq, log.restarts...)
		seq = append(seq, log.leaves...)
		seq = append(seq, log.crashes...)
		return seq, e.Stats()
	}
	a, sa := runOnce()
	b, sb := runOnce()
	if sa != sb {
		t.Fatalf("stats diverge: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("event counts diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event sequence diverges at %d", i)
		}
	}
}
