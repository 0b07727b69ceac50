// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8). Every experiment is the same loop — for each
// configuration: run the slots, pool the node outcomes (pool), add a row
// — and returns a Result, whose Render prints the rows/series the paper
// reports.
//
// The experiments are scale-parameterized: `go test` exercises them at
// reduced size, while cmd/pandas-sim runs the paper's 1,000-20,000-node
// configurations (-exp all for the whole suite).
package experiments

import (
	"fmt"
	"time"

	"pandas/internal/core"
	"pandas/internal/simnet"
)

// Options selects the scale and parameters of an experiment run.
type Options struct {
	// Nodes is the network size (paper: 1,000 for testbed figures).
	Nodes int
	// Slots is the number of seeding/consolidation/sampling cycles
	// aggregated (paper: 10).
	Slots int
	// Seed drives all randomness.
	Seed int64
	// Core holds protocol parameters; zero value selects DefaultConfig.
	Core core.Config
	// LossRate is the message loss probability in [0, 1). nil selects
	// the simulator default (3%); Loss(0) disables loss entirely. The
	// pointer removes the old ambiguity where the zero value conflated
	// "unset" with "lossless" and callers had to smuggle a negative
	// sentinel to get a lossless run. Negative rates clamp to 0.
	LossRate *float64
}

// Loss builds an Options.LossRate value: Loss(0.1) requests 10% loss,
// Loss(0) requests a lossless network. Leave the field nil for the
// simulator default.
func Loss(rate float64) *float64 { return &rate }

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 1000
	}
	if o.Slots == 0 {
		o.Slots = 10
	}
	if o.Core.Blob.K == 0 {
		o.Core = core.DefaultConfig()
	}
	if o.LossRate == nil {
		o.LossRate = Loss(simnet.DefaultLossRate)
	} else if *o.LossRate < 0 {
		o.LossRate = Loss(0)
	}
	return o
}

// TestOptions returns a fast configuration for unit tests and examples.
func TestOptions() Options {
	return Options{Nodes: 120, Slots: 2, Seed: 7, Core: core.TestConfig()}
}

// runSlots runs slots 1..slots of a deployment (a PANDAS cluster's or a
// baseline's RunSlot) and returns the node outcomes of all slots, in
// slot order, beside the per-slot results.
func runSlots(runSlot func(uint64) (*core.SlotResult, error), slots int) ([]core.NodeOutcome, []*core.SlotResult, error) {
	var outcomes []core.NodeOutcome
	results := make([]*core.SlotResult, 0, slots)
	for s := 1; s <= slots; s++ {
		res, err := runSlot(uint64(s))
		if err != nil {
			return nil, nil, fmt.Errorf("slot %d: %w", s, err)
		}
		outcomes = append(outcomes, res.Outcomes...)
		results = append(results, res)
	}
	return outcomes, results, nil
}

// runPooled is the common body of a sweep step: build a PANDAS cluster
// for the options, run o.Slots slots, pool the outcomes under label.
func runPooled(label string, o Options, mutate func(*core.ClusterConfig)) (*Sample, []*core.SlotResult, error) {
	c, err := newCluster(o, mutate)
	if err != nil {
		return nil, nil, err
	}
	outcomes, slots, err := runSlots(c.RunSlot, o.Slots)
	if err != nil {
		return nil, nil, err
	}
	return pool(label, outcomes, o.Core.Deadline, nil), slots, nil
}

// clusterConfig is the deployment the options describe. PANDAS and both
// baselines are built from it, so at one seed they share identities,
// custody and sample draws.
func clusterConfig(o Options) core.ClusterConfig {
	return core.ClusterConfig{Core: o.Core, N: o.Nodes, Seed: o.Seed, LossRate: *o.LossRate}
}

// newCluster builds a PANDAS cluster for the options.
func newCluster(o Options, mutate func(*core.ClusterConfig)) (*core.Cluster, error) {
	cc := clusterConfig(o)
	if mutate != nil {
		mutate(&cc)
	}
	return core.NewCluster(cc)
}

func fmtMs(d time.Duration) string {
	if d < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", d.Milliseconds())
}
