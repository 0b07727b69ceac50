package baseline

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
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
	cfg   core.Config
	net   *simnet.Network
	peers []*dht.Peer
	bPeer *dht.Peer

	// rngs are the nodes' private streams, the ones core.Node draws its
	// samples from; samples holds this slot's draws.
	rngs       []*rand.Rand
	samples    [][]blob.CellID
	sampleDone []time.Duration
}

// NewDHTCluster builds the DHT-DAS deployment over the network, node and
// builder identities and sample streams core.NewCluster derives from cc:
// N peers plus the builder, all bootstrapped with the full peer list (a
// well-crawled network). Of cc it reads Core, N, Seed, Latency and
// LossRate.
func NewDHTCluster(cc core.ClusterConfig) (*DHTCluster, error) {
	dep, err := core.NewDeployment(cc.Core, cc.Seed, cc.N)
	if err != nil {
		return nil, err
	}
	d := &DHTCluster{cfg: cc.Core}
	d.net, err = core.NewNetwork(cc, func(node, from, _ int, payload any) {
		d.peers[node].HandleMessage(from, payload)
	})
	if err != nil {
		return nil, err
	}
	entries := make([]dht.Entry, cc.N+1)
	for i := 0; i < cc.N; i++ {
		entries[i] = dht.Entry{ID: dep.Table.ID(i), Addr: i}
	}
	entries[cc.N] = dht.Entry{ID: dep.BuilderID, Addr: cc.N}
	d.peers = make([]*dht.Peer, cc.N)
	d.rngs = make([]*rand.Rand, cc.N)
	d.samples = make([][]blob.CellID, cc.N)
	for i := range d.peers {
		d.rngs[i] = rand.New(rand.NewSource(dep.NodeSeed(i)))
		d.peers[i] = dht.NewPeer(entries[i], d.net.Endpoint(i))
		d.peers[i].Bootstrap(entries)
	}
	d.bPeer = dht.NewPeer(entries[cc.N], d.net.Endpoint(cc.N))
	d.bPeer.Bootstrap(entries)
	if err := d.net.SetHandler(cc.N, func(from, _ int, payload any) {
		d.bPeer.HandleMessage(from, payload)
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// RunSlot stores all parcels and samples them from every node.
func (d *DHTCluster) RunSlot(slot uint64) (*core.SlotResult, error) {
	start := d.net.Now()
	cfg := d.cfg
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

	// Samplers: each node draws its slot's cells as a PANDAS node does and
	// GETs the distinct parcels covering them, retrying misses until the
	// slot ends.
	d.sampleDone = make([]time.Duration, len(d.peers))
	remaining := make([]int, len(d.peers))
	for i := range d.peers {
		d.sampleDone[i] = -1
		node := i
		d.samples[node] = core.DrawSamples(d.rngs[node], cfg.Blob, cfg.Samples)
		// Sorted: the GETs are scheduled in this order and the event order
		// decides every later tie.
		parcels := make([]int, 0, len(d.samples[node]))
		for _, id := range d.samples[node] {
			parcels = append(parcels, parcelOf(id, n))
		}
		slices.Sort(parcels)
		parcels = slices.Compact(parcels)
		remaining[node] = len(parcels)
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
					if d.net.Now()-start < core.SlotDuration-delay {
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

	d.net.Run(start + core.SlotDuration)

	return slotResult(d.net, d.sampleDone), nil
}
