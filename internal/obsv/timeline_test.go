package obsv

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// traceFixture is a two-node slot: node 0 completes every phase, node 1
// never samples. Events are deliberately out of order — reconstruction
// must not depend on it.
func traceFixture() []Event {
	return []Event{
		{Seq: 9, At: ms(900), Slot: 1, Kind: KindSampleVerdict, Node: 0, Count: 6, Aux: 1},
		{Seq: 0, At: ms(100), Slot: 1, Kind: KindSlotStart, Node: 0},
		{Seq: 1, At: ms(100), Slot: 1, Kind: KindSlotStart, Node: 1},
		{Seq: 2, At: ms(250), Slot: 1, Kind: KindCellsReceived, Src: SrcSeed, Node: 0, Count: 64, Aux: 2},
		{Seq: 3, At: ms(260), Slot: 1, Kind: KindCellsReceived, Src: SrcSeed, Node: 1, Count: 32},
		{Seq: 4, At: ms(300), Slot: 1, Kind: KindRoundStarted, Node: 1, Round: 1, Count: 10},
		{Seq: 5, At: ms(350), Slot: 1, Kind: KindCellsReceived, Src: SrcFetch, Node: 1, Peer: 0, Round: 1, Count: 8},
		{Seq: 6, At: ms(400), Slot: 1, Kind: KindCellsReceived, Src: SrcReconstruct, Node: 1, Count: 4},
		{Seq: 7, At: ms(500), Slot: 1, Kind: KindPeerTimeout, Node: 1, Peer: 3, Count: 1},
		{Seq: 8, At: ms(600), Slot: 1, Kind: KindConsolidated, Node: 0},
	}
}

func TestTimelineReconstruction(t *testing.T) {
	tl := NewTimeline(traceFixture())
	st := tl.Slot(1)
	if st == nil {
		t.Fatal("slot 1 missing")
	}
	if st.Start != ms(100) {
		t.Fatalf("Start = %v, want 100ms", st.Start)
	}

	n0 := st.Node(0)
	if n0.FirstSeedAt != ms(250) || n0.ConsolidatedAt != ms(600) || n0.SampledAt != ms(900) {
		t.Fatalf("node 0 times: %+v", n0)
	}
	if n0.CellsSeed != 64 {
		t.Errorf("node 0 CellsSeed = %d, want 64", n0.CellsSeed)
	}

	n1 := st.Node(1)
	if n1.SampledAt != -1 || n1.ConsolidatedAt != -1 {
		t.Fatalf("node 1 should be incomplete: %+v", n1)
	}
	if n1.Rounds != 1 || n1.Timeouts != 1 {
		t.Errorf("node 1 rounds/timeouts = %d/%d, want 1/1", n1.Rounds, n1.Timeouts)
	}
	if n1.CellsSeed != 32 || n1.CellsFetch != 8 || n1.CellsRecon != 4 {
		t.Errorf("node 1 cell split = %d/%d/%d, want 32/8/4",
			n1.CellsSeed, n1.CellsFetch, n1.CellsRecon)
	}

	got := st.Durations(PhaseSampling, nil)
	want := []time.Duration{ms(800), -1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Durations(sampling) = %v, want %v", got, want)
	}
	got = st.Durations(PhaseSeed, nil)
	want = []time.Duration{ms(150), ms(160)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Durations(seed) = %v, want %v", got, want)
	}
	got = st.Durations(PhaseConsolidation, func(node int) bool { return node == 0 })
	want = []time.Duration{ms(500)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Durations(consolidation, node 0 only) = %v, want %v", got, want)
	}
}

func TestTimelineMultiSlot(t *testing.T) {
	events := []Event{
		{At: ms(0), Slot: 1, Kind: KindSlotStart, Node: 0},
		{At: ms(12000), Slot: 2, Kind: KindSlotStart, Node: 0},
		{At: ms(12500), Slot: 2, Kind: KindSampleVerdict, Node: 0, Aux: 1},
	}
	tl := NewTimeline(events)
	slots := tl.Slots()
	if len(slots) != 2 || slots[0].Slot != 1 || slots[1].Slot != 2 {
		t.Fatalf("Slots() = %v", slots)
	}
	if d := slots[1].Durations(PhaseSampling, nil); len(d) != 1 || d[0] != ms(500) {
		t.Fatalf("slot 2 sampling durations = %v, want [500ms]", d)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := traceFixture()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	src := "\n" + `{"seq":0,"at":1000000,"slot":1,"kind":1,"node":0,"peer":-1}` + "\n\n"
	out, err := ReadJSONL(bytes.NewBufferString(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Kind != KindSlotStart || out[0].Peer != -1 {
		t.Fatalf("parsed %+v", out)
	}
}

// TestKindStrings pins the trace-kind taxonomy. A JSONL trace stores
// Event.Kind as its number, so renumbering a kind silently relabels every
// trace already on disk: each value keeps its name for good.
func TestKindStrings(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		num  uint8
		name string
	}{
		{KindSlotStart, 1, "slot-start"},
		{KindSeedSent, 2, "seed-sent"},
		{KindCellsReceived, 3, "cells-received"},
		{KindRoundStarted, 4, "round-started"},
		{KindBoostPromotion, 5, "boost-promotion"},
		{KindPeerTimeout, 6, "peer-timeout"},
		{KindPeerRecovered, 7, "peer-recovered"},
		{KindPeerDemoted, 8, "peer-demoted"},
		{KindConsolidated, 9, "consolidated"},
		{KindSampleVerdict, 10, "sample-verdict"},
		{KindChurnEvent, 12, "churn-event"},
		{KindGossipMsg, 13, "gossip-msg"},
		{KindWithheldCell, 15, "withheld-cell"},
		{KindCorruptReject, 16, "corrupt-reject"},
		{KindFaultStart, 17, "fault-start"},
		{KindFaultStop, 18, "fault-stop"},
	} {
		if uint8(c.kind) != c.num || Kind(c.num).String() != c.name {
			t.Errorf("kind %d: value %d, name %q; want %d %q", c.num, uint8(c.kind), Kind(c.num).String(), c.num, c.name)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []Event{{Kind: c.kind}}); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`"kind":%d,`, c.num); !strings.Contains(buf.String(), want) {
			t.Errorf("%s encodes as %s, want %s", c.name, buf.String(), want)
		}
	}
	for _, k := range []Kind{0, 11, 14, KindFaultStop + 1} {
		if s, want := k.String(), fmt.Sprintf("Kind(%d)", uint8(k)); s != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), s, want)
		}
	}
	for _, op := range []ChurnOp{ChurnJoin, ChurnRestart, ChurnLeave, ChurnCrash} {
		if s := op.String(); s == "" || s[0] == 'C' {
			t.Errorf("%d.String() = %q", op, s)
		}
	}
}

// TestReadJSONLRetiredKinds: kinds 19-21 were the light-client sampling
// gateway's (query, cache hit, coalesced), which pandas-node stamped with
// its own node index; kinds 11 and 14 were a churn run's view-refresh
// crawls and the DHT RPCs that carried them. A trace written before
// these were retired still loads, their lines read as unnamed kinds, and
// they change no phase a timeline reconstructs.
func TestReadJSONLRetiredKinds(t *testing.T) {
	fixture := traceFixture()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fixture); err != nil {
		t.Fatal(err)
	}
	retired := []struct {
		kind uint8
		line string
	}{
		{19, `{"seq":10,"at":300000000,"slot":1,"kind":19,"node":0,"peer":42,"count":1}`},
		{20, `{"seq":11,"at":310000000,"slot":1,"kind":20,"node":0,"peer":42}`},
		{21, `{"seq":12,"at":320000000,"slot":1,"kind":21,"node":1,"peer":7,"aux":2}`},
		{11, `{"seq":13,"at":330000000,"slot":1,"kind":11,"node":1,"peer":-1,"count":57,"aux":3}`},
		{14, `{"seq":14,"at":340000000,"slot":1,"kind":14,"node":0,"peer":1,"bytes":93}`},
	}
	for _, r := range retired {
		buf.WriteString(r.line + "\n")
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(fixture)+len(retired) {
		t.Fatalf("read %d events, want %d", len(events), len(fixture)+len(retired))
	}
	for i, e := range events[len(fixture):] {
		if want := fmt.Sprintf("Kind(%d)", retired[i].kind); e.Kind.String() != want {
			t.Errorf("retired kind reads as %q, want %q", e.Kind, want)
		}
	}
	with, without := NewTimeline(events).Slot(1), NewTimeline(fixture).Slot(1)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("retired kinds changed the timeline:\nwith:    %+v\nwithout: %+v", with, without)
	}
	for _, p := range []Phase{PhaseSeed, PhaseConsolidation, PhaseSampling} {
		if a, b := with.Durations(p, nil), without.Durations(p, nil); !reflect.DeepEqual(a, b) {
			t.Errorf("Durations(%s) = %v with retired kinds, %v without", p, a, b)
		}
	}
}
