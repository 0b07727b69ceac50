// Package adversary implements composable byzantine-behavior and
// fault-injection policies for PANDAS deployments.
//
// PANDAS exists to detect data withholding (Section 3 of the paper), yet
// an honest-only deployment never exercises that machinery. This package
// supplies the attackers: builder-side withholding patterns and degraded
// seeding (late, partial, crash mid-transmission), per-node byzantine
// behaviors applied at the protocol message boundary (silent, laggard,
// garbage, view-poisoner), and scheduled network faults (partitions and
// loss bursts) on the simulation clock. Everything is driven by
// deterministic sortition from the run seed, so adversarial runs are as
// reproducible as honest ones.
//
// The package deliberately wraps existing components instead of forking
// them: builder attacks install through Builder.SetWithholding and the
// seeding schedule, node behaviors wrap the node's Transport, and network
// faults use the simulator's loss-rate and link-filter hooks. core wires
// it all up from ClusterConfig.Adversary; nothing here imports core.
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
	// Poisoner nodes advertise departed peers as live through the
	// membership gossip mesh, keeping dead entries in honest views.
	Poisoner
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
	case Poisoner:
		return "poisoner"
	default:
		return fmt.Sprintf("Behavior(%d)", uint8(b))
	}
}

// Pattern selects a builder withholding pattern generator.
type Pattern uint8

// Withholding patterns.
const (
	// WithholdNone seeds honestly.
	WithholdNone Pattern = iota
	// WithholdRandom withholds each cell independently with probability
	// WithholdFraction. Below ~1/2 the erasure code heals the gaps; the
	// attack wastes fetch traffic without breaking availability.
	WithholdRandom
	// WithholdRows withholds WithholdLines entire rows. Up to K rows the
	// columns reconstruct them; beyond K the data is unrecoverable.
	WithholdRows
	// WithholdCols withholds WithholdLines entire columns, symmetrically.
	WithholdCols
	// WithholdMaximal withholds the (n/2+1) x (n/2+1) square anchored at
	// (0,0): the largest region that defeats reconstruction while
	// releasing everything else (Fig. 3-right).
	WithholdMaximal
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case WithholdNone:
		return "none"
	case WithholdRandom:
		return "random"
	case WithholdRows:
		return "rows"
	case WithholdCols:
		return "cols"
	case WithholdMaximal:
		return "maximal"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// BuilderAttack describes adversarial builder behavior for a run.
type BuilderAttack struct {
	// Withholding selects the pattern of cells the builder refuses to
	// release.
	Withholding Pattern
	// WithholdFraction is the per-cell probability for WithholdRandom.
	WithholdFraction float64
	// WithholdLines is the number of full lines for WithholdRows/Cols.
	WithholdLines int
	// SeedDelay postpones the start of seeding past the slot start (late
	// seeding): the whole 4 s sampling budget shrinks by this much.
	SeedDelay time.Duration
	// SeedFraction, when in (0, 1), restricts seeding to that share of
	// the nodes (partial seeding); the rest must fetch everything from
	// peers. Zero or one means everyone is seeded.
	SeedFraction float64
	// CrashAfterFraction, when in (0, 1), makes the builder go silent
	// after transmitting that share of its seed datagrams — a crash in
	// the middle of its ~1 s transmission schedule. Because datagrams are
	// sent round-robin across nodes, every node ends up with a truncated
	// batch rather than a few nodes with none.
	CrashAfterFraction float64
}

// active reports whether any builder attack is configured.
func (a BuilderAttack) active() bool {
	return a.Withholding != WithholdNone || a.SeedDelay > 0 ||
		(a.SeedFraction > 0 && a.SeedFraction < 1) ||
		(a.CrashAfterFraction > 0 && a.CrashAfterFraction < 1)
}

// FaultKind selects a scheduled network fault.
type FaultKind uint8

// Network fault kinds.
const (
	// FaultPartition isolates a random Fraction of the nodes from the
	// rest for the window: messages crossing the cut are dropped.
	FaultPartition FaultKind = iota + 1
	// FaultLossBurst raises the network loss rate to LossRate for the
	// window, then restores the baseline.
	FaultLossBurst
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultPartition:
		return "partition"
	case FaultLossBurst:
		return "loss-burst"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Fault is one scheduled network fault, re-armed every slot at the given
// offset from the slot start.
type Fault struct {
	Kind FaultKind
	// At is the fault's start offset from each slot start.
	At time.Duration
	// Duration is how long the fault lasts.
	Duration time.Duration
	// Fraction is the isolated node share for FaultPartition.
	Fraction float64
	// LossRate is the drop probability during a FaultLossBurst.
	LossRate float64
}

// Behavior timing.
const (
	// DefaultLagMin / DefaultLagMax bound the laggard response delay:
	// past every adaptive round timeout, short of the inflight TTL, so a
	// laggard's replies arrive just late enough to be useless for the
	// round that asked.
	DefaultLagMin = 500 * time.Millisecond
	DefaultLagMax = 2 * time.Second
	// DefaultPoisonInterval is how often a poisoner re-advertises a
	// departed peer.
	DefaultPoisonInterval = time.Second
)

// Config collects every adversary knob for a deployment. A nil or
// zero-valued config is inert: the deployment behaves exactly as without
// the subsystem.
type Config struct {
	// SilentFraction..PoisonFraction select the share of nodes assigned
	// each byzantine behavior by sortition. The fractions must sum to at
	// most 1; the remainder stays honest.
	SilentFraction  float64
	LaggardFraction float64
	GarbageFraction float64
	PoisonFraction  float64

	// Builder describes the builder-side attack.
	Builder BuilderAttack

	// Faults are scheduled network faults, re-armed each slot.
	Faults []Fault
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
		c.GarbageFraction > 0 || c.PoisonFraction > 0 ||
		c.Builder.active() || len(c.Faults) > 0
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
		{"garbage", c.GarbageFraction}, {"poison", c.PoisonFraction},
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
	b := c.Builder
	switch b.Withholding {
	case WithholdNone, WithholdRandom, WithholdRows, WithholdCols, WithholdMaximal:
	default:
		return fmt.Errorf("%w: unknown withholding pattern %d", ErrBadAdversary, b.Withholding)
	}
	if b.Withholding == WithholdRandom && (b.WithholdFraction <= 0 || b.WithholdFraction > 1) {
		return fmt.Errorf("%w: random withholding fraction %v out of (0,1]", ErrBadAdversary, b.WithholdFraction)
	}
	if (b.Withholding == WithholdRows || b.Withholding == WithholdCols) && b.WithholdLines < 1 {
		return fmt.Errorf("%w: line withholding needs WithholdLines >= 1", ErrBadAdversary)
	}
	if b.SeedDelay < 0 {
		return fmt.Errorf("%w: negative seed delay", ErrBadAdversary)
	}
	if b.SeedFraction < 0 || b.SeedFraction > 1 {
		return fmt.Errorf("%w: seed fraction %v out of [0,1]", ErrBadAdversary, b.SeedFraction)
	}
	if b.CrashAfterFraction < 0 || b.CrashAfterFraction > 1 {
		return fmt.Errorf("%w: crash fraction %v out of [0,1]", ErrBadAdversary, b.CrashAfterFraction)
	}
	for i, f := range c.Faults {
		switch f.Kind {
		case FaultPartition:
			if f.Fraction <= 0 || f.Fraction >= 1 {
				return fmt.Errorf("%w: fault %d partition fraction %v out of (0,1)", ErrBadAdversary, i, f.Fraction)
			}
		case FaultLossBurst:
			if f.LossRate <= 0 || f.LossRate >= 1 {
				return fmt.Errorf("%w: fault %d loss rate %v out of (0,1)", ErrBadAdversary, i, f.LossRate)
			}
		default:
			return fmt.Errorf("%w: fault %d has unknown kind %d", ErrBadAdversary, i, f.Kind)
		}
		if f.At < 0 || f.Duration <= 0 {
			return fmt.Errorf("%w: fault %d window [%v,+%v) invalid", ErrBadAdversary, i, f.At, f.Duration)
		}
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
		{Poisoner, c.PoisonFraction},
	} {
		k := int(float64(n) * span.f)
		for i := 0; i < k && next < n; i++ {
			out[perm[next]] = span.b
			next++
		}
	}
	return out
}

// SeedTargets returns the deterministic set of nodes a partial-seeding
// builder serves: a seeded random subset of size fraction*n. Returns nil
// (meaning "everyone") when the fraction does not restrict.
func SeedTargets(seed int64, n int, fraction float64) map[int]bool {
	if fraction <= 0 || fraction >= 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x53454544)) // "SEED"
	keep := int(float64(n) * fraction)
	targets := make(map[int]bool, keep)
	for _, i := range rng.Perm(n)[:keep] {
		targets[i] = true
	}
	return targets
}
