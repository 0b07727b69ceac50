// Package adversary implements composable byzantine-behavior policies
// and the builder's withholding attack for PANDAS deployments.
//
// PANDAS exists to detect data withholding (Section 3 of the paper), yet
// an honest-only deployment never exercises that machinery. This package
// supplies the attackers: the builder's one attack, withholding the
// maximal non-reconstructable square (whose shape blob.Withheld defines
// beside its size and detection bound), and per-node byzantine behaviors
// applied at the protocol message boundary (silent, laggard, garbage).
// Everything is driven by deterministic sortition from
// the run seed, so adversarial runs are as reproducible as honest ones.
// Timed network faults (partitions and loss bursts) are not here: they
// are events of core's scenario list, beside the lifecycle transitions.
//
// The package deliberately wraps existing components instead of forking
// them: the builder attack installs through Builder.SetWithholding and
// node behaviors wrap the node's Transport. core wires it all up from
// ClusterConfig.Adversary; nothing here imports core.
package adversary

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Behavior is the policy a node follows. The zero value is honest.
type Behavior uint8

// Node behaviors.
const (
	// Honest nodes follow the protocol.
	Honest Behavior = iota
	// Silent nodes receive queries but never respond (free-riders /
	// query-dropping byzantines). They still fetch and sample for
	// themselves.
	Silent
	// Laggard nodes respond, but only after an adversarial delay drawn
	// from [DefaultLagMin, DefaultLagMax) — enough to push honest
	// fetchers past their round timeouts.
	Laggard
	// Garbage nodes respond promptly with corrupted cells whose proofs
	// fail verification; honest fetchers must reject and re-request.
	Garbage
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Silent:
		return "silent"
	case Laggard:
		return "laggard"
	case Garbage:
		return "garbage"
	default:
		return fmt.Sprintf("Behavior(%d)", uint8(b))
	}
}

// Behavior timing.
const (
	// DefaultLagMin / DefaultLagMax bound the laggard response delay:
	// past every adaptive round timeout, short of the inflight TTL, so a
	// laggard's replies arrive just late enough to be useless for the
	// round that asked.
	DefaultLagMin = 500 * time.Millisecond
	DefaultLagMax = 2 * time.Second
)

// Config collects every adversary knob for a deployment. A nil or
// zero-valued config is inert: the deployment behaves exactly as without
// the subsystem.
type Config struct {
	// SilentFraction..GarbageFraction select the share of nodes assigned
	// each byzantine behavior by sortition. The fractions must sum to at
	// most 1; the remainder stays honest.
	SilentFraction  float64
	LaggardFraction float64
	GarbageFraction float64

	// Withhold makes the builder withhold the maximal non-reconstructable
	// square, blob.Withheld, and release every other cell (Fig. 3-right).
	Withhold bool
}

// Validation errors.
var ErrBadAdversary = errors.New("adversary: invalid configuration")

// Active reports whether the config enables any adversarial behavior.
// Nil-safe.
func (c *Config) Active() bool {
	if c == nil {
		return false
	}
	return c.SilentFraction > 0 || c.LaggardFraction > 0 ||
		c.GarbageFraction > 0 || c.Withhold
}

// Validate checks parameter consistency. Nil-safe (nil is valid: inert).
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	fracs := []struct {
		name string
		v    float64
	}{
		{"silent", c.SilentFraction}, {"laggard", c.LaggardFraction},
		{"garbage", c.GarbageFraction},
	}
	sum := 0.0
	for _, f := range fracs {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("%w: %s fraction %v out of [0,1]", ErrBadAdversary, f.name, f.v)
		}
		sum += f.v
	}
	if sum > 1 {
		return fmt.Errorf("%w: behavior fractions sum to %v > 1", ErrBadAdversary, sum)
	}
	return nil
}

// sortitionSalt decorrelates adversary sortition from every other
// consumer of the run seed, so enabling adversaries never perturbs
// honest-path randomness.
const sortitionSalt = 0x41445653 // "ADVS"

// Sortition deterministically assigns a behavior to each of n nodes from
// the run seed: a seeded permutation is cut into contiguous spans sized
// by the configured fractions (floor semantics, matching DeadFraction).
// The same (seed, n, config) always yields the same assignment — the
// property the determinism tests pin down. Nil-safe: a nil config
// returns all-honest.
func (c *Config) Sortition(seed int64, n int) []Behavior {
	out := make([]Behavior, n)
	if c == nil || n == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed ^ sortitionSalt))
	perm := rng.Perm(n)
	next := 0
	for _, span := range []struct {
		b Behavior
		f float64
	}{
		{Silent, c.SilentFraction},
		{Laggard, c.LaggardFraction},
		{Garbage, c.GarbageFraction},
	} {
		k := int(float64(n) * span.f)
		for i := 0; i < k && next < n; i++ {
			out[perm[next]] = span.b
			next++
		}
	}
	return out
}
