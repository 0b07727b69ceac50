package adversary

import (
	"reflect"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/wire"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  *Config
		ok   bool
	}{
		{"nil", nil, true},
		{"zero", &Config{}, true},
		{"silent", &Config{SilentFraction: 0.2}, true},
		{"all behaviors", &Config{SilentFraction: 0.2, LaggardFraction: 0.2, GarbageFraction: 0.2}, true},
		{"fraction out of range", &Config{SilentFraction: 1.5}, false},
		{"negative fraction", &Config{GarbageFraction: -0.1}, false},
		{"fractions sum over 1", &Config{SilentFraction: 0.6, LaggardFraction: 0.6}, false},
		{"withholding", &Config{Withhold: true}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

func TestActive(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Active() {
		t.Error("nil config reported active")
	}
	if (&Config{}).Active() {
		t.Error("zero config reported active")
	}
	active := []*Config{
		{SilentFraction: 0.1},
		{Withhold: true},
	}
	for i, c := range active {
		if !c.Active() {
			t.Errorf("case %d: config not reported active", i)
		}
	}
}

func TestSortitionDeterministic(t *testing.T) {
	cfg := &Config{SilentFraction: 0.2, LaggardFraction: 0.1, GarbageFraction: 0.1}
	a := cfg.Sortition(42, 200)
	b := cfg.Sortition(42, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sortition is not deterministic for a fixed seed")
	}
	c := cfg.Sortition(43, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("sortition ignored the seed")
	}
}

func TestSortitionCounts(t *testing.T) {
	cfg := &Config{SilentFraction: 0.2, LaggardFraction: 0.1, GarbageFraction: 0.1}
	n := 200
	got := map[Behavior]int{}
	for _, b := range cfg.Sortition(7, n) {
		got[b]++
	}
	want := map[Behavior]int{Silent: 40, Laggard: 20, Garbage: 20, Honest: 120}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sortition counts = %v, want %v", got, want)
	}
}

func TestSortitionNil(t *testing.T) {
	var cfg *Config
	for _, b := range cfg.Sortition(1, 50) {
		if b != Honest {
			t.Fatal("nil config sortitioned a non-honest node")
		}
	}
}

// fakeTransport records sends and timers for policy tests.
type fakeTransport struct {
	sent   []any
	sentTo []int
	timers []struct {
		d  time.Duration
		fn func()
	}
}

func (f *fakeTransport) Send(to int, size int, payload any) {
	f.sent = append(f.sent, payload)
	f.sentTo = append(f.sentTo, to)
}
func (f *fakeTransport) SendReliable(to int, size int, payload any) { f.Send(to, size, payload) }
func (f *fakeTransport) After(d time.Duration, fn func()) {
	f.timers = append(f.timers, struct {
		d  time.Duration
		fn func()
	}{d, fn})
}
func (f *fakeTransport) Now() time.Duration { return 0 }

func resp() *wire.Response {
	return &wire.Response{Slot: 1, Cells: []wire.Cell{
		{ID: blob.CellID{Row: 1, Col: 2}, Data: []byte{0xAA, 0xBB}},
		{ID: blob.CellID{Row: 3, Col: 4}},
	}}
}

func TestHonestWrapIsIdentity(t *testing.T) {
	tr := &fakeTransport{}
	if NewAgent(0, Honest, 1).WrapTransport(tr) != Transport(tr) {
		t.Fatal("honest agent should not wrap the transport")
	}
	var nilAgent *Agent
	if nilAgent.WrapTransport(tr) != Transport(tr) {
		t.Fatal("nil agent should not wrap the transport")
	}
}

func TestSilentDropsResponses(t *testing.T) {
	tr := &fakeTransport{}
	a := NewAgent(0, Silent, 1)
	w := a.WrapTransport(tr)
	w.Send(5, 100, resp())
	if len(tr.sent) != 0 {
		t.Fatal("silent agent let a response through")
	}
	if a.DroppedResponses != 1 {
		t.Fatalf("DroppedResponses = %d, want 1", a.DroppedResponses)
	}
	// Queries still pass: silent nodes sample for themselves.
	w.Send(5, 40, &wire.Query{Slot: 1})
	if len(tr.sent) != 1 {
		t.Fatal("silent agent dropped a non-response message")
	}
}

func TestLaggardDelaysResponses(t *testing.T) {
	tr := &fakeTransport{}
	a := NewAgent(0, Laggard, 1)
	w := a.WrapTransport(tr)
	w.Send(5, 100, resp())
	if len(tr.sent) != 0 {
		t.Fatal("laggard sent the response immediately")
	}
	if len(tr.timers) != 1 {
		t.Fatalf("laggard armed %d timers, want 1", len(tr.timers))
	}
	if d := tr.timers[0].d; d < DefaultLagMin || d >= DefaultLagMax {
		t.Fatalf("lag delay %v outside [%v, %v)", d, DefaultLagMin, DefaultLagMax)
	}
	tr.timers[0].fn()
	if len(tr.sent) != 1 || tr.sentTo[0] != 5 {
		t.Fatal("laggard did not deliver the response after the delay")
	}
	if a.DelayedResponses != 1 {
		t.Fatalf("DelayedResponses = %d, want 1", a.DelayedResponses)
	}
}

func TestGarbageCorruptsCopy(t *testing.T) {
	tr := &fakeTransport{}
	a := NewAgent(0, Garbage, 1)
	w := a.WrapTransport(tr)
	orig := resp()
	w.Send(5, 100, orig)
	if len(tr.sent) != 1 {
		t.Fatal("garbage agent did not send")
	}
	got := tr.sent[0].(*wire.Response)
	if got == orig {
		t.Fatal("garbage agent mutated the shared message instead of copying")
	}
	for i, c := range got.Cells {
		if !c.Tainted {
			t.Fatalf("cell %d not marked tainted", i)
		}
		if c.ID != orig.Cells[i].ID {
			t.Fatalf("cell %d ID changed", i)
		}
	}
	// Real-payload cell: data flipped on the copy, original untouched.
	if got.Cells[0].Data[0] != 0xAA^0xFF {
		t.Fatal("real payload not corrupted")
	}
	if orig.Cells[0].Data[0] != 0xAA {
		t.Fatal("original payload was mutated")
	}
	if orig.Cells[0].Tainted || orig.Cells[1].Tainted {
		t.Fatal("original cells were marked tainted")
	}
	if a.CorruptedCells != 2 {
		t.Fatalf("CorruptedCells = %d, want 2", a.CorruptedCells)
	}
}

func TestBehaviorStrings(t *testing.T) {
	for b, want := range map[Behavior]string{
		Honest: "honest", Silent: "silent", Laggard: "laggard",
		Garbage: "garbage", Garbage + 1: "Behavior(4)",
	} {
		if b.String() != want {
			t.Errorf("Behavior %d: got %q want %q", b, b.String(), want)
		}
	}
}
