package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// virtualClock lists the end-to-end metrics that, on the two simulator
// workloads, are read off the simulated clock and counters: they must
// repeat bit for bit at a fixed seed.
var virtualClock = []string{"sample_p50_ms", "sample_p99_ms", "deadline_share", "fetch_msgs_per_node", "fetch_kb_per_node", "builder_mb_out"}

// runSelfcheck runs every workload several times on unchanged code, one
// process per run as the driver does, and prints each end-to-end
// metric's spread beside its bound. With seeds == 0 it makes three runs
// at the one seed, reports (max-min)/median, and requires the simulator
// workloads' virtual-clock metrics to be identical across the three;
// with seeds > 0 it makes one run at each of that many seeds and reports
// the interquartile range over the median, as the driver computes it.
// It returns the process exit code: 1 if any spread exceeds its bound.
func runSelfcheck(seed int64, seconds, seeds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 1
	}
	runs, sameSeed := seeds, false
	if seeds == 0 {
		runs, sameSeed = 3, true
	}
	failed := false
	fmt.Printf("%-16s %-20s %14s %10s %8s\n", "workload", "metric", "median", "spread", "bound")
	for _, spec := range workloadSpecs {
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			s := seed
			if !sameSeed {
				s += int64(r)
			}
			res, err := runChild(exe, spec.name, s, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %v\n", spec.name, s, err)
				return 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEndDecls {
			v := values[d.name]
			spread := spreadOf(v, sameSeed)
			mark := ""
			if d.name != "setup_s" && spread > d.bound {
				mark, failed = "  EXCEEDS BOUND", true
			}
			if sameSeed && spec.simulated() && slices.Contains(virtualClock, d.name) && !allEqual(v) {
				mark, failed = mark+"  NOT BIT-IDENTICAL", true
			}
			fmt.Printf("%-16s %-20s %14.6g %9.2f%% %7.0f%%%s\n", spec.name, d.name, median(v), 100*spread, 100*d.bound, mark)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// simulated reports whether the workload runs on the simulated clock.
func (s workloadSpec) simulated() bool {
	return s.name == "sim_dense" || s.name == "sim_real_faulty"
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

// spreadOf is (max-min)/median, or with quartiles the distance between
// the first and third quartile over the median, the quartiles computed
// as Python's statistics.quantiles(values, n=4) computes them.
func spreadOf(v []float64, minMax bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	mid := s[n/2]
	if n%2 == 0 {
		mid = (s[n/2-1] + s[n/2]) / 2
	}
	if mid == 0 {
		return 0
	}
	if minMax {
		return (s[n-1] - s[0]) / math.Abs(mid)
	}
	return (exclusiveQuantile(s, 0.75) - exclusiveQuantile(s, 0.25)) / math.Abs(mid)
}

// exclusiveQuantile is the "exclusive" method of statistics.quantiles:
// position q*(n+1) in the 1-based sorted sample, interpolated.
func exclusiveQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n+1)
	lo := int(math.Floor(pos))
	lo = min(max(lo, 1), n-1)
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

// runChild runs one workload in a fresh process and parses the last
// line of its output.
func runChild(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run incorrect or with failed operations: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	return &res, nil
}
