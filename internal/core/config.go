// Package core implements the PANDAS protocol: builder-led seeding of
// erasure-extended blob data, peer-to-peer consolidation of custody
// assignments, and random sampling — all within the 4-second attestation
// window of an Ethereum consensus slot.
//
// The package ties the substrates together: cell geometry (blob), the
// deterministic assignment (assign), the adaptive fetcher (fetch),
// commitments (kzg), wire formats (wire), and a Transport abstraction
// implemented by the discrete-event simulator (simnet) and by the real
// UDP transport (transport).
package core

import (
	"errors"
	"fmt"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/fetch"
	"pandas/internal/obsv"
)

// SlotDuration is Ethereum's 12-second consensus slot. A simulated slot
// runs this long on the virtual clock; DefaultConfig's 4 s Deadline is
// its first third, the attestation window DAS must finish in.
const SlotDuration = 12 * time.Second

// Errors returned by this package.
var (
	ErrBadConfig = errors.New("core: invalid configuration")
	ErrNoNodes   = errors.New("core: cluster has no nodes")
)

// Policy selects the builder's seeding strategy (Section 6.1).
type Policy int

// Seeding policies.
const (
	// PolicyMinimal sends a single copy of the minimal reconstructable
	// data (the base quadrant): cheapest for the builder, fragile to any
	// loss. Used as a cost baseline.
	PolicyMinimal Policy = iota + 1
	// PolicySingle sends a single copy of every extended cell (140 MB
	// with paper parameters); the erasure code absorbs losses.
	PolicySingle
	// PolicyRedundant sends Redundancy copies of every extended cell
	// (the paper's default, r = 8).
	PolicyRedundant
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyMinimal:
		return "minimal"
	case PolicySingle:
		return "single"
	case PolicyRedundant:
		return "redundant"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config collects all protocol parameters. DefaultConfig returns the
// paper's values; TestConfig a scaled-down geometry for fast tests.
type Config struct {
	// Blob is the cell-matrix geometry.
	Blob blob.Params
	// Assign is the custody assignment geometry (rows/cols per node).
	Assign assign.Params
	// Samples is the number of random cells each node samples (73).
	Samples int
	// Schedule drives adaptive fetching rounds.
	Schedule fetch.Schedule
	// SeedWait is the seed-wait period (400 ms). It sets the seed-quiet
	// deadline: 3 x SeedWait after StartSlot for a node that receives no
	// seed datagram, then SeedWait after each datagram. A flow still
	// incomplete at the deadline ends there, and the missing seed cells
	// are fetched from peers.
	SeedWait time.Duration
	// Deadline is the sampling deadline from slot start (4 s).
	Deadline time.Duration
	// Policy is the builder's seeding strategy.
	Policy Policy
	// Redundancy is r, the copies per cell under PolicyRedundant.
	Redundancy int
	// RealPayloads selects between metadata cells (large-scale
	// simulation) and real bytes with erasure coding and commitment
	// verification.
	RealPayloads bool
	// DisableConsolidation turns off fetching of missing custody cells;
	// only sampling drives the fetcher. The GossipSub baseline uses this:
	// custody arrives via topic gossip instead of explicit consolidation.
	// A custodian then holds only what seeding or gossip gave it, so
	// sampling asks peers not yet asked before re-asking any, and once
	// seeding is over counts an ask for its round only (see planRound).
	DisableConsolidation bool
	// Recorder receives protocol trace events from every layer (builder
	// seeding, node receive/fetch/sample paths, liveness transitions,
	// churn). Nil — the default — disables tracing: every emission site
	// is a single nil check, so the protocol's behaviour and timing are
	// unchanged (see obsv's disabled-path benchmark gate).
	Recorder obsv.Recorder
	// TraceRing is the event capacity of the ring-buffer recorder created
	// by trace-enabled runs (pandas-sim -trace).
	// It does not allocate anything by itself; it only sizes the ring
	// when one is requested.
	TraceRing int
}

// DefaultConfig returns the paper's parameters: 512x512 extended matrix,
// 560 B cells, 8+8 custody lines, 73 samples, redundant seeding with
// r = 8, adaptive schedule, 4 s deadline.
func DefaultConfig() Config {
	return Config{
		Blob:       blob.DefaultParams(),
		Assign:     assign.DefaultParams(blob.DefaultParams().N()),
		Samples:    73,
		Schedule:   fetch.DefaultSchedule(),
		SeedWait:   400 * time.Millisecond,
		Deadline:   4 * time.Second,
		Policy:     PolicyRedundant,
		Redundancy: 8,
		TraceRing:  obsv.DefaultRingSize,
	}
}

// TestConfig returns a scaled-down configuration (32x32 extended matrix,
// 2+2 custody lines, 8 samples) that exercises identical code paths at a
// fraction of the cost.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Blob = blob.TestParams() // K=16 -> 32x32
	cfg.Assign = assign.Params{Rows: 2, Cols: 2, N: cfg.Blob.N()}
	cfg.Samples = 8
	cfg.Redundancy = 4
	return cfg
}

// Validate checks parameter consistency.
func (c Config) Validate() error {
	if err := c.Blob.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := c.Assign.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	switch {
	case c.Assign.N != c.Blob.N():
		return fmt.Errorf("%w: assignment width %d != extended width %d", ErrBadConfig, c.Assign.N, c.Blob.N())
	case c.Samples < 1 || c.Samples > c.Blob.ExtendedCells():
		return fmt.Errorf("%w: samples=%d", ErrBadConfig, c.Samples)
	case c.Policy < PolicyMinimal || c.Policy > PolicyRedundant:
		return fmt.Errorf("%w: unknown policy %d", ErrBadConfig, c.Policy)
	case c.Policy == PolicyRedundant && c.Redundancy < 1:
		return fmt.Errorf("%w: redundancy=%d", ErrBadConfig, c.Redundancy)
	case c.Deadline <= 0:
		return fmt.Errorf("%w: deadline=%v", ErrBadConfig, c.Deadline)
	case c.TraceRing < 1:
		return fmt.Errorf("%w: traceRing=%d", ErrBadConfig, c.TraceRing)
	}
	// Recorder is nil-safe: nil simply disables tracing, so there is
	// nothing further to validate.
	return nil
}

// Transport abstracts the substrate messages travel over. Implementations
// must deliver callbacks on a single logical thread (the simulator's
// event loop or the UDP transport's receive loop).
type Transport interface {
	// Send transmits a protocol message of the given wire size to the
	// peer with transport address to. A Query or Response passed to Send
	// belongs to the transport until it is delivered, and its receiver
	// must not keep the message or its Cells after HandleMessage returns:
	// a simulated cluster builds the next message in it. A cell's Data
	// is the sender's store's, under Store.Peek's aliasing rule.
	Send(to int, size int, payload any)
	// SendReliable transmits without simulated random loss; used for the
	// builder's seeding path (see simnet.SendReliable). Transports
	// without a reliability distinction implement it as Send.
	SendReliable(to int, size int, payload any)
	// After schedules fn after a delay of (virtual or real) time.
	After(d time.Duration, fn func())
	// Now returns the current (virtual or real) time.
	Now() time.Duration
}
