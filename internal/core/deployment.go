package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"time"

	"pandas/internal/assign"
	"pandas/internal/ids"
	"pandas/internal/latency"
	"pandas/internal/simnet"
	"pandas/internal/wire"
)

// Deployment is what one (config, seed, N) names before any transport
// exists: the node identities, the epoch table, the builder and proposer
// identities, and the private random streams of the nodes and the
// builder. The simulated cluster, both baselines and every real-socket
// host derive theirs here, so at one seed they are one deployment: node i
// holds the same custody lines and samples the same cells in the same
// slot in each.
type Deployment struct {
	Table     *Table
	BuilderID ids.NodeID
	Proposer  *ids.Identity
	// Rand is the deployment's stream past the epoch entropy: the cluster
	// draws its dead set, views and block overlay from it, in that order,
	// and the GossipSub baseline its topic meshes and injection points.
	Rand *rand.Rand

	cfg     Config
	seed    int64
	n       int      // protocol nodes; the builder is participant n
	entropy [32]byte // the epoch seeds' input; see epochSeed
}

// NewDeployment derives the deployment of n nodes at seed.
func NewDeployment(cfg Config, seed int64, n int) (*Deployment, error) {
	if n < 1 {
		return nil, ErrNoNodes
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	nodeIDs := make([]ids.NodeID, n)
	for i := range nodeIDs {
		// Cached interning: sweeps rebuild clusters with the same seed at
		// growing sizes, and per-node ed25519 keygen dominates large
		// cluster construction otherwise.
		nodeIDs[i] = ids.NewTestIdentityCached(seed<<20 + int64(i)).ID
	}
	var entropy [32]byte
	rng.Read(entropy[:])
	table, err := NewTable(cfg.Assign, epochSeed(entropy, 0), nodeIDs)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Table:     table,
		BuilderID: ids.NewTestIdentityCached(seed<<20 + int64(n) + 7).ID,
		Proposer:  ids.NewTestIdentityCached(seed<<20 + int64(n) + 8),
		Rand:      rng,
		cfg:       cfg,
		seed:      seed,
		n:         n,
		entropy:   entropy,
	}, nil
}

// epochSeed is the assignment seed of an epoch: sha256(entropy ||
// big-endian epoch). It stands in for RANDAO, which accumulates validator
// contributions, and keeps the two properties PANDAS relies on: every
// node agrees on the seed, and no one knows it before the entropy is
// fixed.
func epochSeed(entropy [32]byte, epoch uint64) assign.Seed {
	h := sha256.New()
	h.Write(entropy[:])
	h.Write(binary.BigEndian.AppendUint64(nil, epoch))
	var s assign.Seed
	h.Sum(s[:0])
	return s
}

// NodeSeed is node i's private stream, the one its sample draws come from.
func (d *Deployment) NodeSeed(i int) int64 { return d.seed ^ int64(i*2654435761) }

// NewNode builds node i over tr.
func (d *Deployment) NewNode(i int, tr Transport) *Node {
	return NewNode(d.cfg, i, d.Table, tr, d.NodeSeed(i))
}

// NewBuilder builds the builder over tr, signing its seeds with the
// proposer's key.
func (d *Deployment) NewBuilder(tr Transport) *Builder {
	b := NewBuilder(d.cfg, d.n, d.BuilderID, d.Table, tr, d.seed+99)
	b.SetProposerSigner(func(slot uint64) (sig [wire.SigSize]byte) {
		copy(sig[:], d.Proposer.Sign(wire.SeedSigningBytes(slot, d.BuilderID)))
		return sig
	})
	return b
}

// NewNetwork builds the simulated network cc describes: its latency model
// (the IPFS-like planetary topology when nil) and loss rate, cc.N nodes
// at NodeBandwidth whose deliveries go to dispatch, then the builder's
// vertex, index cc.N, on a 10 Gbps uplink and without a handler. PANDAS
// and both baselines run over it.
func NewNetwork(cc ClusterConfig, dispatch func(node, from, size int, payload any)) (*simnet.Network, error) {
	lat := cc.Latency
	if lat == nil {
		lat = latency.NewIPFSLike(cc.Seed, min(cc.N+1, 10000))
	}
	net, err := simnet.New(simnet.Config{Latency: lat, LossRate: cc.LossRate, Seed: cc.Seed, MinDelay: time.Millisecond})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cc.N; i++ {
		net.AddNode(func(from, size int, payload any) { dispatch(i, from, size, payload) },
			simnet.NodeBandwidth, simnet.NodeBandwidth)
	}
	net.AddNode(nil, simnet.BuilderBandwidth, simnet.BuilderBandwidth)
	return net, nil
}
