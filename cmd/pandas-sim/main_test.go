package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{"-exp", "fig9", "-small", "-loss", "1.5"},
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

// TestRunLossFlag: -loss 0 must run lossless (accepted, not treated as
// "unset"); this was impossible to express before the pointer option.
func TestRunLossFlag(t *testing.T) {
	if err := run([]string{"-exp", "table1", "-small", "-nodes", "60", "-slots", "1", "-loss", "0"}); err != nil {
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

// TestListIsRegistryGenerated: a new registry entry shows up in -list
// without touching this command.
func TestListIsRegistryGenerated(t *testing.T) {
	// run prints to stdout; assert on the library output it uses.
	out := listOutput()
	for _, name := range []string{"fig9", "byzantine", "scale", "churn"} {
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
