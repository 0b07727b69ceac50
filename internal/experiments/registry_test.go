package experiments

import (
	"strings"
	"testing"

	"pandas/internal/adversary"
)

func TestRegistryCoversAllExperiments(t *testing.T) {
	want := []string{"fig9", "fig10", "table1", "fig11", "fig12", "fig13", "fig14",
		"fig15a", "fig15b", "churn", "ablation", "confidence",
		"withholding", "byzantine", "all"}
	table := Table()
	if len(table) != len(want) {
		t.Fatalf("table has %d experiments, want %d", len(table), len(want))
	}
	for i, name := range want {
		if table[i].Name != name {
			t.Fatalf("entry %d is %q, want %q (paper order)", i, table[i].Name, name)
		}
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
	for _, e := range Table() {
		if !strings.Contains(out, e.Name) {
			t.Fatalf("ListText missing %q:\n%s", e.Name, out)
		}
	}
	// Flag annotations come from the entries' Flags.
	for _, frag := range []string{"-sizes", "-fractions", "-rates", "-behavior", "-trials"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("ListText missing flag %q:\n%s", frag, out)
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
	if b, err := ParseBehavior("laggard"); err != nil || b != adversary.Laggard {
		t.Fatalf("laggard: got %v, %v", b, err)
	}
	if _, err := ParseBehavior("sneaky"); err == nil {
		t.Fatal("unknown behavior accepted")
	}
}
