package experiments

// The parsers behind pandas-sim's Params flags. Each rejects every
// malformed or out-of-range entry, so a typo like "-sizes 1000,2k" is an
// error rather than a sweep over half the intended points.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pandas/internal/adversary"
)

// ParseIntList parses a comma-separated list of positive integers.
// Empty input yields nil (callers substitute their defaults); any
// malformed or non-positive entry is an error naming the flag.
func ParseIntList(flagName, s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: %q is not a positive integer", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloatList parses a comma-separated list of floats in [min, max).
// Empty input yields nil; any malformed or out-of-range entry is an
// error naming the flag.
func ParseFloatList(flagName, s string, min, max float64) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < min || v >= max {
			return nil, fmt.Errorf("%s: %q is not a number in [%v, %v)", flagName, part, min, max)
		}
		out = append(out, v)
	}
	return out, nil
}

// behaviorNames are the -behavior values.
var behaviorNames = map[string]adversary.Behavior{
	"silent":  adversary.Silent,
	"laggard": adversary.Laggard,
	"garbage": adversary.Garbage,
}

// ParseBehavior looks up a byzantine behavior by its -behavior name.
func ParseBehavior(s string) (adversary.Behavior, error) {
	b, ok := behaviorNames[s]
	if !ok {
		names := make([]string, 0, len(behaviorNames))
		for n := range behaviorNames {
			names = append(names, n)
		}
		sort.Strings(names)
		return 0, fmt.Errorf("unknown behavior %q (%s)", s, strings.Join(names, ", "))
	}
	return b, nil
}
