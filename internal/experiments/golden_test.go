package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/render/*.golden from the current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "render", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: rendered text differs from %s\n--- got\n%s\n--- want\n%s", name, path, got, want)
	}
}

// TestRenderGolden pins what "byte-identical" means for the evaluation:
// the rendered text of every experiment that runs on the virtual clock,
// at one fixed configuration, must not move unless a change means it to
// (regenerate with -update and say so in the commit).
func TestRenderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fourteen experiments")
	}
	p := DefaultParams()
	p.Sizes = []int{80, 120}
	for _, name := range []string{"fig9", "fig10", "table1", "fig11", "fig12", "fig13", "fig14",
		"fig15a", "fig15b", "churn", "ablation", "confidence", "withholding", "byzantine"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		pp := p
		if name == "ablation" {
			pp.Sizes = nil // there -sizes is the redundancy sweep; pin the default one
		}
		res, err := e.Run(TestOptions(), pp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, name, res.Render())
	}
}
