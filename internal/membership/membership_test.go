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
