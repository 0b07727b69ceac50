package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// layerPackages are the pandas/internal packages CPU time is attributed
// to; time under any other package, or under none, goes to runtime_gc or
// other, so the shares sum to 1.
var layerPackages = []string{"gf65536", "rs", "blob", "kzg", "wire", "transport", "simnet", "fetch", "core", "assign", "obsv"}

const internalPrefix = "pandas/internal/"

// entryPoints maps a cumulative-share metric to the function-name
// prefixes that count toward it: a sample counts once if any frame of
// its stack matches. Prefixes (not exact names) so that the closures a
// function runs on worker goroutines, whose stacks start at the closure,
// are included.
var entryPoints = map[string][]string{
	"rs.reconstruct.cum_share":             {internalPrefix + "rs.(*Codec16).Reconstruct"},
	"rs.encode.cum_share":                  {internalPrefix + "rs.(*Codec16).Encode"},
	"core.store_try_reconstruct.cum_share": {internalPrefix + "core.(*Store).TryReconstruct"},
	"core.handle_message.cum_share":        {internalPrefix + "core.(*Node).HandleMessage"},
	"kzg.verify.cum_share":                 {internalPrefix + "kzg.Verify"},
	"kzg.prove_all.cum_share":              {internalPrefix + "kzg.(*Committer).ProveAll"},
	"blob.extend.cum_share":                {internalPrefix + "blob.extend", internalPrefix + "blob.ExtendData"},
	"fetch.plan_lazy.cum_share":            {internalPrefix + "fetch.PlanLazy"},
	"wire.codec.cum_share":                 {internalPrefix + "wire.Encode", internalPrefix + "wire.Decode"},
}

// gcFrames mark a stack with no pandas frame as garbage-collector work.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

// profileShares is a CPU profile reduced to shares of its total.
type profileShares struct {
	total time.Duration
	owner map[string]time.Duration // layer -> time whose innermost pandas frame is in it
	cum   map[string]time.Duration // entry-point metric -> time under it
}

// ownerOf attributes one stack (innermost frame first) to the layer of
// its innermost pandas/internal frame.
func ownerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range layerPackages {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
	}
	return "other"
}

// parseTraces reads the text `go tool pprof -traces` prints — stacks
// separated by dashed lines, the first line of each carrying the
// sample's value before the innermost function — and attributes every
// sample.
func parseTraces(r io.Reader) (*profileShares, error) {
	ps := &profileShares{owner: map[string]time.Duration{}, cum: map[string]time.Duration{}}
	var (
		stack   []string
		value   time.Duration
		inStack bool
	)
	flush := func() {
		if !inStack || len(stack) == 0 {
			return
		}
		ps.total += value
		ps.owner[ownerOf(stack)] += value
		for name, prefixes := range entryPoints {
			if stackHas(stack, prefixes) {
				ps.cum[name] += value
			}
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			stack, inStack = stack[:0], true
			continue
		}
		if !inStack {
			continue // header
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case len(stack) == 0:
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: no function after value in %q", line)
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value in %q: %w", line, err)
			}
			value = v
			stack = append(stack, strings.Join(fields[1:], " "))
		default:
			stack = append(stack, strings.Join(fields, " "))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	if ps.total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return ps, nil
}

func stackHas(stack, prefixes []string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// emit writes one cpu_share per layer, runtime_gc and other (they sum to
// 1) and one cum_share per entry point.
func (ps *profileShares) emit(m metrics) {
	share := func(d time.Duration) metric { return metric{float64(d) / float64(ps.total), "ratio"} }
	for _, l := range append([]string{"runtime_gc", "other"}, layerPackages...) {
		m[l+".cpu_share"] = share(ps.owner[l])
	}
	for name := range entryPoints {
		m[name] = share(ps.cum[name])
	}
}

// cpuProfile is a runtime/pprof CPU profile being written to a file.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(dir, workload string, seed int64) (*cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and closes its file; stopping twice is harmless.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	if p.f == nil {
		return nil
	}
	f := p.f
	p.f = nil
	return f.Close()
}

// stopAndAttribute ends the profile and reduces it to shares.
func (p *cpuProfile) stopAndAttribute() (*profileShares, error) {
	if err := p.stop(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", p.path)
	// pprof keeps its scratch files next to the profile, inside the
	// checkout, and never goes to the network for symbols: a Go profile
	// carries its function names.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(p.path), "PPROF_BINARY_PATH="+filepath.Dir(p.path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, stderr.String())
	}
	return parseTraces(bytes.NewReader(out))
}
