package pandas

import (
	"time"

	"pandas/internal/blob"
	"pandas/internal/consensus"
	"pandas/internal/core"
	"pandas/internal/fetch"
	"pandas/internal/latency"
	"pandas/internal/obsv"
	"pandas/internal/simnet"
	"pandas/internal/swarm"
)

// Core protocol types, re-exported from the implementation packages.
type (
	// Config holds all protocol parameters (blob geometry, custody
	// assignment, sampling count, fetch schedule, seeding policy).
	Config = core.Config
	// Policy selects the builder's seeding strategy.
	Policy = core.Policy
	// ClusterConfig describes a simulated deployment.
	ClusterConfig = core.ClusterConfig
	// Cluster is a simulated PANDAS deployment (N nodes + one builder)
	// over the discrete-event network.
	Cluster = core.Cluster
	// SlotResult aggregates one simulated slot.
	SlotResult = core.SlotResult
	// NodeOutcome is one node's per-slot observation.
	NodeOutcome = core.NodeOutcome
	// SeedingReport summarizes the builder's output for a slot.
	SeedingReport = core.SeedingReport
	// Node is a PANDAS participant bound to a transport.
	Node = core.Node
	// Builder prepares and seeds extended blob data.
	Builder = core.Builder
	// Localnet is a real-UDP deployment on the loopback interface.
	Localnet = swarm.Localnet
	// Schedule drives the adaptive fetching rounds.
	Schedule = fetch.Schedule
	// BlobParams is the cell-matrix geometry.
	BlobParams = blob.Params
	// CellID addresses one cell of the extended matrix.
	CellID = blob.CellID
	// LatencyModel yields one-way propagation delays for the simulator.
	LatencyModel = simnet.LatencyModel
)

// Observability types, re-exported from the obsv layer.
type (
	// Recorder receives protocol trace events; install one via
	// WithRecorder. A nil recorder (the default) disables tracing at the
	// cost of a single nil check per emission site.
	Recorder = obsv.Recorder
	// Event is one typed, slot-scoped trace observation (seed sent,
	// cells received, round started, peer timeout, sample verdict, view
	// refresh, churn event, ...).
	Event = obsv.Event
	// TraceRing is the lock-free ring-buffer Recorder retaining the most
	// recent events.
	TraceRing = obsv.Ring
	// StatsRegistry is the counters/gauges/histograms registry; its
	// Snapshot can be rendered as Prometheus text exposition.
	StatsRegistry = obsv.Registry
	// Snapshot is a point-in-time, read-only copy of a StatsRegistry.
	Snapshot = obsv.Snapshot
	// Timeline reconstructs per-slot, per-node phase timings from a
	// recorded trace — the series the paper's CDFs aggregate.
	Timeline = obsv.Timeline
)

// Seeding policies (Section 6.1 of the paper).
const (
	// PolicyMinimal seeds a single copy of the minimal reconstructable
	// data; cheapest, fragile to loss.
	PolicyMinimal = core.PolicyMinimal
	// PolicySingle seeds one copy of every extended cell.
	PolicySingle = core.PolicySingle
	// PolicyRedundant seeds Redundancy copies of every cell (default,
	// r = 8).
	PolicyRedundant = core.PolicyRedundant
)

// Consensus timing constants.
const (
	// SlotDuration is Ethereum's 12-second slot.
	SlotDuration = consensus.SlotDuration
	// AttestationDeadline is the 4-second window within which block
	// verification and DAS must complete under the tight fork-choice
	// rule.
	AttestationDeadline = consensus.PhaseDuration
)

// DefaultConfig returns the paper's Danksharding-target parameters:
// 512x512 extended matrix of 560-byte cells, 8 rows + 8 columns custody
// per node, 73 samples, redundant seeding with r = 8, and the adaptive
// fetch schedule (t = 400/200/100... ms, k = 1/2/4/6/8/10).
func DefaultConfig() Config { return core.DefaultConfig() }

// TestConfig returns a scaled-down geometry (32x32 extended matrix) that
// exercises identical code paths quickly; intended for tests and demos.
func TestConfig() Config { return core.TestConfig() }

// NewCluster builds a simulated deployment: N protocol nodes plus one
// builder over a discrete-event network with planetary latencies, 3%
// message loss, and per-node bandwidth caps (25 Mbps nodes, 10 Gbps
// builder), as in the paper's testbed.
func NewCluster(cc ClusterConfig) (*Cluster, error) { return core.NewCluster(cc) }

// NewLocalnet builds a real-UDP deployment of n nodes plus a builder on
// 127.0.0.1, with real payloads, erasure reconstruction, commitment
// verification, and proposer signatures.
func NewLocalnet(cfg Config, n int, seed int64) (*Localnet, error) {
	return swarm.NewLocalnet(cfg, n, seed)
}

// NewPlanetaryLatency returns the synthetic planetary-scale latency model
// calibrated to the IPFS trace statistics the paper emulates (RTT 8-438
// ms, mean ~64 ms).
func NewPlanetaryLatency(seed int64, vertices int) LatencyModel {
	return latency.NewIPFSLike(seed, vertices)
}

// SamplingFalsePositiveBound returns the probability upper bound of
// wrongly concluding availability after samples random cells of an
// n x n extended matrix (Section 3 of the paper). With n = 512 and
// samples = 73 the bound is below 1e-9.
func SamplingFalsePositiveBound(n, samples int) float64 {
	return blob.FalsePositiveBound(n, samples)
}

// SamplesForConfidence returns the minimal number of random samples
// needed to push the false-positive bound below target.
func SamplesForConfidence(n int, target float64) int {
	return blob.SamplesForConfidence(n, target)
}

// MeetsDeadline reports whether a sampling completion time satisfies the
// tight fork-choice attestation window.
func MeetsDeadline(samplingTime time.Duration) bool {
	return samplingTime >= 0 && samplingTime <= AttestationDeadline
}

// WithRecorder returns a copy of cfg with trace recording enabled:
// every protocol layer (builder seeding, node fetch/sample paths,
// liveness transitions, churn) records events into rec. Pass nil to
// disable tracing.
func WithRecorder(cfg Config, rec Recorder) Config {
	cfg.Recorder = rec
	return cfg
}

// WithMetrics returns a copy of cfg with registry metrics enabled:
// deployments update counters, gauges and histograms (message counts,
// simulator deliveries, drops and bytes, per-slot outcomes on real
// sockets) in reg. Pass nil to disable.
func WithMetrics(cfg Config, reg *StatsRegistry) Config {
	cfg.Metrics = reg
	return cfg
}

// NewTraceRing returns a lock-free ring-buffer Recorder holding the most
// recent capacity events (rounded up to a power of two). Use the
// Config.TraceRing default via DefaultConfig, or pick a size; capacity
// must be at least 1.
func NewTraceRing(capacity int) (*TraceRing, error) { return obsv.NewRing(capacity) }

// NewStatsRegistry returns an empty counters/gauges/histograms registry.
func NewStatsRegistry() *StatsRegistry { return obsv.NewRegistry() }

// NewTimeline reconstructs per-slot, per-node timelines from a recorded
// (or JSONL-loaded) trace.
func NewTimeline(events []Event) *Timeline { return obsv.NewTimeline(events) }
