package experiments

import (
	"testing"
	"time"

	"pandas/internal/core"
)

func TestResultRender(t *testing.T) {
	r := &Result{
		Title:  "T",
		Header: []string{"name", "value"},
		Footer: []string{"foot"},
	}
	r.add(&Sample{Label: "seeding"}, "seeding", "700ms")
	r.add(nil, "x", "1")
	want := "T\n" +
		"name     value\n" +
		"-------  -----\n" +
		"seeding  700ms\n" +
		"x        1\n" +
		"foot\n"
	if got := r.Render(); got != want {
		t.Fatalf("render:\n%q\nwant\n%q", got, want)
	}
	if r.Sample("seeding") == nil || r.Sample("x") != nil {
		t.Fatal("Sample looks rows up by the label of the sample behind them")
	}
	// Parts follow after a blank line each; a result that is only parts
	// (adversary) starts with its first part.
	nested := &Result{Title: "N", Parts: []*Result{{Title: "a"}, {Title: "b"}}}
	if got := nested.Render(); got != "N\n\na\n\nb\n" {
		t.Fatalf("nested render: %q", got)
	}
	if got := (&Result{Parts: []*Result{{Title: "a"}, {Title: "b"}}}).Render(); got != "a\n\nb\n" {
		t.Fatalf("parts-only render: %q", got)
	}
}

// TestPoolEligibility: pool applies core's eligibility rule and the
// optional index filter, and nothing else; never-completed phases stay in
// the denominator as failures.
func TestPoolEligibility(t *testing.T) {
	oc := func(sampling time.Duration) core.NodeOutcome {
		return core.NodeOutcome{Sampling: sampling, JoinedAt: -1, LeftAt: -1, FetchMsgs: 10}
	}
	dead, offline, joiner, leftEarly, leftLate := oc(1), oc(1), oc(1), oc(1), oc(3)
	dead.Dead = true
	offline.Offline = true
	joiner.JoinedAt = 1
	leftEarly.LeftAt = 2
	leftLate.LeftAt = 5
	outcomes := []core.NodeOutcome{oc(1), dead, offline, joiner, leftEarly, leftLate, oc(-1), oc(9)}

	s := pool("all", outcomes, 4, nil)
	if s.Eligible() != 4 || s.OnTime() != 2 || s.OnTimeRate() != 0.5 {
		t.Fatalf("eligible %d, on time %d, rate %v", s.Eligible(), s.OnTime(), s.OnTimeRate())
	}
	if s.Sampling.Failures() != 1 || s.Msgs.Count() != 4 || s.Msgs.Mean() != 10 {
		t.Fatalf("failures %d, msgs n=%d mean=%v", s.Sampling.Failures(), s.Msgs.Count(), s.Msgs.Mean())
	}
	even := pool("even", outcomes, 4, func(i int) bool { return i%2 == 0 })
	if even.Eligible() != 2 || even.OnTime() != 1 {
		t.Fatalf("filtered: eligible %d, on time %d", even.Eligible(), even.OnTime())
	}
}
