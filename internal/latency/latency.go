// Package latency provides all-pairs network latency models for the
// simulator.
//
// SUBSTITUTION NOTE (see DESIGN.md §4): the paper emulates WAN conditions
// by replaying the probelab "RFM15" all-pair latency trace collected on
// IPFS — 10,000 vertices with round-trip times ranging from 8 ms to
// 438 ms and an average of 64 ms, with a visible "step" near 64 ms formed
// by well-connected cloud vertices. That trace is not redistributable
// here, so this package generates a synthetic topology calibrated to the
// same summary statistics: nodes are placed in weighted geographic
// regions with realistic inter-region RTTs, per-vertex access jitter, and
// a slow heavy tail of poorly connected vertices. Replaying a real trace
// waits until one is in the repository.
package latency

import (
	"math/rand"
	"time"
)

// Region describes a geographic cluster of vertices.
type Region struct {
	Name   string
	Weight float64 // fraction of vertices placed here
}

// regions and the inter-region round-trip base latencies (milliseconds)
// approximate public cloud inter-region measurements. Ordering of rows
// and columns matches the regions slice.
var regions = []Region{
	// Weights are concentrated in the EU/NA hosting clusters, matching the
	// RFM15 observation that most reachable IPFS/Ethereum nodes sit in a
	// small set of datacenter regions; they are calibrated so the overall
	// mean RTT lands near the trace's 64 ms.
	{Name: "eu-west", Weight: 0.55},
	{Name: "na-east", Weight: 0.25},
	{Name: "eu-central", Weight: 0.12},
	{Name: "na-west", Weight: 0.03},
	{Name: "asia-east", Weight: 0.02},
	{Name: "asia-se", Weight: 0.01},
	{Name: "sa-east", Weight: 0.01},
	{Name: "oceania", Weight: 0.01},
}

var regionRTTms = [][]float64{
	//        euw  nae  euc  naw  ase  asse  sae   oc
	{8, 75, 22, 135, 230, 165, 185, 270},    // eu-west
	{75, 10, 90, 65, 180, 220, 115, 200},    // na-east
	{22, 90, 9, 150, 245, 160, 205, 285},    // eu-central
	{135, 65, 150, 10, 115, 170, 175, 140},  // na-west
	{230, 180, 245, 115, 12, 55, 300, 120},  // asia-east
	{165, 220, 160, 170, 55, 14, 320, 95},   // asia-se
	{185, 115, 205, 175, 300, 320, 15, 290}, // sa-east
	{270, 200, 285, 140, 120, 95, 290, 16},  // oceania
}

// Topology is a synthetic all-pairs latency model over a fixed number of
// vertices. Node indices map onto vertices modulo the vertex count, which
// mirrors the paper's handling of >10,000-node simulations ("we reuse
// vertices randomly for the assignment").
type Topology struct {
	vertices []vertex
	perm     []int // random node->vertex indirection
}

type vertex struct {
	region int
	// access is the one-way last-mile delay added on each side.
	access time.Duration
}

// NewIPFSLike builds a synthetic topology with the given number of
// vertices, calibrated to the RFM15 trace statistics. The same seed always
// produces the same topology.
func NewIPFSLike(seed int64, vertices int) *Topology {
	rng := rand.New(rand.NewSource(seed))
	t := &Topology{vertices: make([]vertex, vertices), perm: rng.Perm(vertices)}
	for i := range t.vertices {
		r := sampleRegion(rng)
		// Last-mile access delay: most vertices are well connected
		// (datacenter-like, 1-5 ms one-way); a 5% heavy tail adds up to
		// 60 ms more, reproducing the trace's 438 ms worst-case RTTs.
		access := time.Duration(1+rng.Intn(5)) * time.Millisecond
		if rng.Float64() < 0.05 {
			access += time.Duration(20+rng.Intn(41)) * time.Millisecond
		}
		t.vertices[i] = vertex{region: r, access: access}
	}
	return t
}

func sampleRegion(rng *rand.Rand) int {
	x := rng.Float64()
	acc := 0.0
	for i, r := range regions {
		acc += r.Weight
		if x < acc {
			return i
		}
	}
	return len(regions) - 1
}

// vertexOf maps a node index onto a vertex.
func (t *Topology) vertexOf(node int) vertex {
	if node < 0 {
		node = -node
	}
	return t.vertices[t.perm[node%len(t.perm)]]
}

// Delay implements simnet.LatencyModel: the ONE-WAY delay between two
// nodes, i.e. half the modeled RTT.
func (t *Topology) Delay(from, to int) time.Duration {
	return t.RTT(from, to) / 2
}

// RTT returns the modeled round-trip time between two nodes.
func (t *Topology) RTT(from, to int) time.Duration {
	a, b := t.vertexOf(from), t.vertexOf(to)
	base := time.Duration(regionRTTms[a.region][b.region] * float64(time.Millisecond))
	return base + a.access + b.access
}
