// Package swarm is the multi-process deployment runtime: a supervisor
// that launches N pandas-node worker processes on localhost, distributes
// per-node configuration and the peer table over one loopback TCP
// connection per worker, then drives slots end-to-end over real UDP —
// builder seeding, custody consolidation, and sampling all travel through
// the kernel's network stack instead of the in-process simnet.
//
// Every participant on real sockets — a swarm worker, a hand-launched
// pandas-node, each member of a Localnet — is one Host (host.go): the
// endpoint, the node or builder derived from the deployment seed, and the
// slot lifecycle, reporting one Outcome per slot.
//
// The supervisor owns robustness and observability:
//
//   - crash detection via process exit plus hello-heartbeat timeouts,
//     with exponential-backoff restart;
//   - kill/restart fault injection on a per-slot schedule (victims drawn
//     by the adversary package's deterministic sortition, applied at
//     process granularity);
//   - per-slot outcome harvest over the same control connections,
//     reported as the simnet's core.NodeOutcome so swarm and
//     simulation results land in one table. The reports are the whole
//     harvest: a worker keeps no counters of its own.
//
// The peer table has one writer, the supervisor: it learns each worker's
// data address from that worker's registration and hands the whole
// index-ordered table out in every config, so a datagram from a socket no
// worker registered is dropped by the transport unread. The control frames
// (hello, config, start, report: JSON lines) live in control.go, the
// supervisor's event loop in supervisor.go.
package swarm

import (
	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
)

// EnvRestarts is the environment variable the supervisor sets on
// relaunched workers: how many times this index has been restarted.
const EnvRestarts = "PANDAS_SWARM_RESTARTS"

// Geometry is the slot geometry the supervisor distributes to workers.
// It is the swarm-sized analogue of core.Config: small enough that a
// fleet of real processes completes slots well inside the deadline.
// Cells are 64 B long, the builder seeds redundancy copies of each, and
// the seed wait and the deadline are core's defaults (400 ms and 4 s).
type Geometry struct {
	K       int // base matrix size (extended is 2K x 2K)
	Custody int // rows and columns per node
	Samples int
}

const (
	// cellBytes is the payload size of a swarm cell.
	cellBytes = 64
	// redundancy is r, the copies of each cell the builder seeds.
	redundancy = 4
)

// DefaultGeometry returns the swarm default: a 16x16 extended matrix
// with 4+4 custody lines — the localnet test geometry, dense enough
// that every line has multiple holders at a few dozen nodes.
func DefaultGeometry() Geometry {
	return Geometry{
		K:       8,
		Custody: 4,
		Samples: 6,
	}
}

// CoreConfig expands the geometry into a validated core.Config with
// real payloads.
func (g Geometry) CoreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Blob = blob.Params{K: g.K, CellBytes: cellBytes, ProofBytes: 48}
	cfg.Assign = assign.Params{Rows: g.Custody, Cols: g.Custody, N: cfg.Blob.N()}
	cfg.Samples = g.Samples
	cfg.Redundancy = redundancy
	cfg.RealPayloads = true
	return cfg, cfg.Validate()
}

// FillerBlob returns the deterministic layer-2 filler data builders
// seed.
func FillerBlob(cfg core.Config) []byte {
	data := make([]byte, cfg.Blob.BlobBytes())
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	return data
}
