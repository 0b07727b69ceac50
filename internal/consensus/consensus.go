// Package consensus models the slice of Ethereum proof-of-stake consensus
// that PANDAS hangs off: the slot timing and RANDAO-style epoch seeds.
//
// PANDAS deliberately does NOT modify consensus; this package therefore
// only provides the timing scaffolding the protocol runs against: a new
// block every 12 s, a 4 s verification phase, and epoch seeds (known one
// epoch in advance) that drive the cell-to-node assignment of package
// assign.
package consensus

import (
	"crypto/sha256"
	"encoding/binary"
	"time"

	"pandas/internal/assign"
)

// Timing constants from the Ethereum specification.
const (
	// SlotDuration is the wall-clock length of one consensus slot.
	SlotDuration = 12 * time.Second
	// PhaseDuration is one third of a slot: the block proposal /
	// attestation / aggregation phases. DAS must complete within the
	// first phase.
	PhaseDuration = SlotDuration / 3
)

// Randao produces epoch seeds. The real RANDAO accumulates validator
// contributions; this simulation chains a hash over the epoch number and
// an initial entropy value, preserving the properties PANDAS relies on:
// per-epoch unpredictability (before the epoch) and global agreement.
type Randao struct {
	entropy [32]byte
}

// NewRandao creates a seed source from initial entropy.
func NewRandao(entropy [32]byte) *Randao { return &Randao{entropy: entropy} }

// SeedFor returns the assignment seed for the epoch.
func (r *Randao) SeedFor(epoch uint64) assign.Seed {
	h := sha256.New()
	h.Write(r.entropy[:])
	var eb [8]byte
	binary.BigEndian.PutUint64(eb[:], epoch)
	h.Write(eb[:])
	var s assign.Seed
	h.Sum(s[:0])
	return s
}
