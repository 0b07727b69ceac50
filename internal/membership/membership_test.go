package membership

import (
	"testing"
	"time"
)

func TestPeerViewBasics(t *testing.T) {
	const self = 2
	v := NewPeerView(5, self, 0.5)
	var in, out int // a drawn peer and one outside the draw
	for out = 0; v.Contains(out); out++ {
	}
	for in = 0; in == self || !v.Contains(in); in++ {
	}
	v.Add(out)
	v.Add(out) // idempotent
	v.Remove(in)
	v.Remove(in)
	if !v.Contains(out) || v.Contains(in) || !v.Contains(self) {
		t.Fatal("announced join or leave not applied")
	}
	v.Remove(out)
	if v.Contains(out) {
		t.Fatal("joiner's leave not applied")
	}
	v.Add(out)
	v.Reload()
	if !v.Contains(in) || !v.Contains(out) {
		t.Fatal("reload must restore the draw and keep announced joiners")
	}
}

func TestFullPeerView(t *testing.T) {
	v := NewPeerView(1, 0, 1)
	for i := 0; i < 5; i++ {
		if !v.Contains(i) {
			t.Fatalf("full view missing %d", i)
		}
		v.Remove(i)
	}
	if v.Contains(3) {
		t.Fatal("remove failed")
	}
	v.Reload()
	for i := 0; i < 5; i++ {
		if !v.Contains(i) {
			t.Fatalf("reloaded full view missing %d", i)
		}
	}
}

// fakeClock is a deterministic manual clock for scorer tests.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestScorerBackoffGrowsAndCaps(t *testing.T) {
	clk := &fakeClock{}
	s := NewScorer(clk.now)
	if !s.Queryable(9) || s.Penalty(9) != 0 {
		t.Fatal("unknown peer must be healthy")
	}
	s.ReportTimeout(9) // backoff 1s
	if s.Queryable(9) {
		t.Fatal("peer queryable during backoff")
	}
	if s.Failures(9) != 1 {
		t.Fatalf("failures=%d", s.Failures(9))
	}
	clk.t = 1100 * time.Millisecond
	if !s.Queryable(9) {
		t.Fatal("peer not re-armed after backoff expiry")
	}
	if s.Penalty(9) == 0 {
		t.Fatal("re-armed peer must still carry a penalty")
	}
	s.ReportTimeout(9) // backoff 2s
	if s.Queryable(9) {
		t.Fatal("second timeout must re-demote")
	}
	clk.t += 1500 * time.Millisecond
	if s.Queryable(9) {
		t.Fatal("backoff did not double")
	}
	clk.t += time.Second
	if !s.Queryable(9) {
		t.Fatal("doubled backoff never expired")
	}
	// Drive failures past the cap: backoff must stay at DefaultMaxBackoff.
	for i := 0; i < 10; i++ {
		s.ReportTimeout(9)
	}
	clk.t += DefaultMaxBackoff - time.Millisecond
	if s.Queryable(9) {
		t.Fatal("backoff shorter than its cap")
	}
	clk.t += 2 * time.Millisecond
	if !s.Queryable(9) {
		t.Fatal("backoff exceeded its cap")
	}
}

func TestScorerSuccessResets(t *testing.T) {
	clk := &fakeClock{}
	s := NewScorer(clk.now)
	s.ReportTimeout(4)
	s.ReportTimeout(4)
	if s.Demoted() != 1 {
		t.Fatalf("demoted=%d", s.Demoted())
	}
	s.ReportSuccess(4)
	if !s.Queryable(4) || s.Penalty(4) != 0 || s.Failures(4) != 0 || s.Demoted() != 0 {
		t.Fatal("success did not reset the peer")
	}
}

// engineClock adapts a sorted manual event queue for engine tests.
type engineClock struct {
	t      time.Duration
	events []struct {
		at time.Duration
		fn func()
	}
}

func (c *engineClock) Now() time.Duration { return c.t }
func (c *engineClock) After(d time.Duration, fn func()) {
	c.events = append(c.events, struct {
		at time.Duration
		fn func()
	}{c.t + d, fn})
}

// run executes events in time order until the horizon.
func (c *engineClock) run(until time.Duration) {
	for {
		best := -1
		for i, e := range c.events {
			if e.at > until {
				continue
			}
			if best < 0 || e.at < c.events[best].at {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := c.events[best]
		c.events = append(c.events[:best], c.events[best+1:]...)
		c.t = e.at
		e.fn()
	}
	if c.t < until {
		c.t = until
	}
}
