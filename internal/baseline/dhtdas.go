package baseline

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/dht"
	"pandas/internal/ids"
	"pandas/internal/simnet"
)

// ParcelCells is the number of adjacent cells per DHT parcel (the paper
// flattens the matrix and splits it into 64-cell parcels).
const ParcelCells = 64

// Retry pacing for GETs that miss: the parcel may not be stored yet
// early in the slot (the builder's 4,096 PUTs take seconds), so retries
// back off exponentially to avoid a congestion spiral of full iterative
// lookups.
const (
	dhtRetryDelay    = 300 * time.Millisecond
	dhtRetryBackoff  = 1.6
	dhtRetryDelayMax = 2 * time.Second
)

// parcelKey derives the DHT key of a parcel.
func parcelKey(slot uint64, parcel int) ids.NodeID {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], slot)
	binary.BigEndian.PutUint64(buf[8:], uint64(parcel))
	return sha256.Sum256(buf[:])
}

// parcelOf maps a cell to its parcel index (row-major flattening).
func parcelOf(id blob.CellID, n int) int {
	return id.Index(n) / ParcelCells
}

// DHTCluster runs DAS over a Kademlia DHT: the builder PUTs every 64-cell
// parcel (replicated at the 8 closest peers), and sampling nodes GET the
// parcels containing their random cells through iterative multi-hop
// routing. There is no consolidation phase.
type DHTCluster struct {
	cfg    Config
	net    *simnet.Network
	peers  []*dht.Peer
	bPeer  *dht.Peer
	bIndex int

	// Per-slot sampling state.
	sampleDone []time.Duration
}

// NewDHTCluster builds the DHT-DAS deployment: N peers plus the builder,
// all bootstrapped with the full peer list (a well-crawled network).
func NewDHTCluster(cfg Config) (*DHTCluster, error) {
	cfg.fill()
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	net, err := simnet.New(simnet.Config{
		Latency:  cfg.Latency,
		LossRate: cfg.LossRate,
		Seed:     cfg.Seed,
		MinDelay: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	d := &DHTCluster{cfg: cfg, net: net}
	entries := make([]dht.Entry, cfg.N+1)
	for i := 0; i <= cfg.N; i++ {
		entries[i] = dht.Entry{ID: ids.NewTestIdentity(cfg.Seed<<20 + int64(i)).ID, Addr: i}
	}
	d.peers = make([]*dht.Peer, cfg.N)
	for i := 0; i < cfg.N; i++ {
		i := i
		net.AddNode(func(from, size int, payload any) {
			d.peers[i].HandleMessage(from, payload)
		}, simnet.NodeBandwidth, simnet.NodeBandwidth)
		d.peers[i] = dht.NewPeer(entries[i], net.Endpoint(i), 0)
		d.peers[i].Bootstrap(entries)
	}
	d.bIndex = net.AddNode(func(from, size int, payload any) {
		d.bPeer.HandleMessage(from, payload)
	}, simnet.BuilderBandwidth, simnet.BuilderBandwidth)
	d.bPeer = dht.NewPeer(entries[cfg.N], net.Endpoint(d.bIndex), 0)
	d.bPeer.Bootstrap(entries)
	return d, nil
}

// RunSlot stores all parcels and samples them from every node.
func (d *DHTCluster) RunSlot(slot uint64) (*core.SlotResult, error) {
	start := d.net.Now()
	cfg := d.cfg.Core
	n := cfg.Blob.N()
	totalParcels := (cfg.Blob.ExtendedCells() + ParcelCells - 1) / ParcelCells
	parcelBytes := ParcelCells * cfg.Blob.CellWireBytes()

	// Builder: PUT every parcel at slot start. dht.Put replicates at the
	// Replication (8) closest peers, matching the paper's "eight put
	// operations per parcel" budget.
	d.net.After(0, func() {
		for p := 0; p < totalParcels; p++ {
			d.bPeer.Put(parcelKey(slot, p), parcelBytes, p, func(int) {})
		}
	})

	// Samplers: each node derives the parcels covering its random cells
	// and GETs them, retrying misses until the slot ends.
	d.sampleDone = make([]time.Duration, d.cfg.N)
	remaining := make([]int, d.cfg.N)
	for i := 0; i < d.cfg.N; i++ {
		d.sampleDone[i] = -1
		node := i
		rng := newSplitMix(uint64(d.cfg.Seed) ^ uint64(node)*0x9E3779B97F4A7C15)
		need := map[int]bool{}
		for len(need) < cfg.Samples {
			idx := int(rng.next() % uint64(cfg.Blob.ExtendedCells()))
			need[parcelOf(blob.CellIDFromIndex(idx, n), n)] = true
		}
		remaining[node] = len(need)
		// Sorted, not map order: the GETs are scheduled in this order and
		// the event order decides every later tie.
		parcels := make([]int, 0, len(need))
		for p := range need {
			parcels = append(parcels, p)
		}
		sort.Ints(parcels)
		for _, p := range parcels {
			p := p
			delay := dhtRetryDelay
			var attempt func()
			attempt = func() {
				d.peers[node].Get(parcelKey(slot, p), func(dht.GetResp) {
					remaining[node]--
					if remaining[node] == 0 {
						d.sampleDone[node] = d.net.Now() - start
					}
				}, func() {
					// Not stored yet (or routed poorly): retry with
					// exponential backoff until the slot runs out.
					if d.net.Now()-start < 12*time.Second-delay {
						d.net.After(delay, attempt)
						delay = time.Duration(float64(delay) * dhtRetryBackoff)
						if delay > dhtRetryDelayMax {
							delay = dhtRetryDelayMax
						}
					}
				})
			}
			d.net.After(0, attempt)
		}
	}

	d.net.Run(start + 12*time.Second)

	return slotResult(d.net, d.bIndex, d.sampleDone), nil
}

// splitMix is a tiny deterministic generator for sample selection.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
