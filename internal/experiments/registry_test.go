package experiments

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestRegistryCoversAllExperiments(t *testing.T) {
	want := []string{"fig9", "fig10", "table1", "fig11", "fig12", "fig13", "fig14",
		"fig15a", "fig15b", "churn", "ablation", "validate", "confidence",
		"withholding", "byzantine", "scale", "all"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if e.Name != name || e.Desc == "" || e.Run == nil {
			t.Fatalf("entry %q incomplete: %+v", name, e)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

func TestRegistryListText(t *testing.T) {
	out := ListText()
	for _, name := range Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("ListText missing %q:\n%s", name, out)
		}
	}
	// Flag annotations come from the declared hooks.
	for _, frag := range []string{"-sizes", "-fractions", "-rates", "-behavior", "-trials"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("ListText missing flag %q:\n%s", frag, out)
		}
	}
}

func TestBindFlagsDedupAndParse(t *testing.T) {
	p := DefaultParams()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	// Many experiments declare -sizes/-fractions; binding must not panic
	// on duplicate registration.
	BindFlags(fs, &p)
	err := fs.Parse([]string{"-sizes", "100,200", "-fractions", "0,0.5",
		"-rates", "0,2.5", "-behavior", "laggard", "-trials", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sizes) != 2 || p.Sizes[1] != 200 {
		t.Fatalf("sizes = %v", p.Sizes)
	}
	if len(p.Fractions) != 2 || p.Fractions[1] != 0.5 {
		t.Fatalf("fractions = %v", p.Fractions)
	}
	if len(p.Rates) != 2 || p.Rates[1] != 2.5 {
		t.Fatalf("rates = %v", p.Rates)
	}
	if p.Trials != 7 {
		t.Fatalf("trials = %d", p.Trials)
	}
	// Malformed values must fail the parse, not be silently dropped.
	for _, bad := range [][]string{
		{"-sizes", "100,bogus"},
		{"-sizes", "100,-3"},
		{"-fractions", "0.2,1.5"},
		{"-rates", "0.1,-1"},
		{"-behavior", "sneaky"},
	} {
		fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
		fs2.SetOutput(io.Discard)
		p2 := DefaultParams()
		BindFlags(fs2, &p2)
		if err := fs2.Parse(bad); err == nil {
			t.Fatalf("parse accepted %v", bad)
		}
	}
}

func TestParseLists(t *testing.T) {
	if xs, err := ParseIntList("-sizes", " 1, 2 ,3"); err != nil || len(xs) != 3 {
		t.Fatalf("got %v, %v", xs, err)
	}
	if xs, err := ParseIntList("-sizes", ""); err != nil || xs != nil {
		t.Fatalf("empty: got %v, %v", xs, err)
	}
	if _, err := ParseIntList("-sizes", "1,0"); err == nil {
		t.Fatal("zero accepted")
	}
	if _, err := ParseFloatList("-fractions", "0.5,1.0", 0, 1); err == nil {
		t.Fatal("upper bound not exclusive")
	}
	if xs, err := ParseFloatList("-rates", "0,0.5,10", 0, 1e18); err != nil || len(xs) != 3 {
		t.Fatalf("got %v, %v", xs, err)
	}
}
