// Package baseline implements the two alternative DAS designs PANDAS is
// compared against in Section 8: dissemination over GossipSub topic
// meshes, and storage/retrieval through the Kademlia DHT. Both reuse the
// same simulator, latency model, cell geometry, and sampling semantics as
// the PANDAS cluster, so the comparison isolates the dissemination layer.
package baseline

import (
	"math/rand"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/gossip"
	"pandas/internal/simnet"
	"pandas/internal/wire"
)

// slotResult reports a baseline slot in the PANDAS cluster's schema, so
// the comparison pools and counts all three systems the same way. Only
// Sampling and the traffic fields are set: the baselines have no seeding
// or consolidation phase, FetchMsgs/FetchBytes carry the node's whole
// traffic (dissemination included) from the network layer, and
// Seeding.Messages/Bytes what the builder, vertex N of core.NewNetwork,
// sent.
func slotResult(net *simnet.Network, sampling []time.Duration) *core.SlotResult {
	builder := net.Stats(len(sampling))
	res := &core.SlotResult{
		Outcomes: make([]core.NodeOutcome, len(sampling)),
		Seeding:  core.SeedingReport{Messages: builder.MsgsSent, Bytes: builder.BytesSent},
	}
	for i, s := range sampling {
		st := net.Stats(i)
		o := core.NewNodeOutcome()
		o.Sampling, o.FetchMsgs, o.FetchBytes = s, st.TotalMsgs(), st.TotalBytes()
		res.Outcomes[i] = o
	}
	net.ResetStats()
	return res
}

// custodyChunk is one gossip frame: a batch of cells of one line.
type custodyChunk struct {
	id    gossip.MsgID
	slot  uint64
	line  blob.Line
	cells []wire.Cell
}

func (c *custodyChunk) wireSize(cellBytes int) int {
	// Comparable framing to a PANDAS response plus the gossip message ID.
	m := wire.Response{Slot: c.slot, Cells: c.cells}
	return m.WireSize(cellBytes) + 8
}

// GossipCluster runs DAS with GossipSub-based dissemination: one topic
// per row/column, membership = the line's holders, mesh degree 8. The
// builder injects r copies of every line into its topic; members flood.
// Explicit consolidation is disabled; sampling works as in PANDAS.
type GossipCluster struct {
	cfg      core.Config
	net      *simnet.Network
	table    *core.Table
	nodes    []*core.Node
	overlays map[blob.Line]*gossip.Overlay
	routers  []*gossip.Router
	rng      *rand.Rand
	nextMsg  uint64
}

// NewGossipCluster builds the GossipSub-DAS deployment over the network,
// identities, custody table and sample streams core.NewCluster derives
// from cc. Of cc it reads Core, N, Seed, Latency and LossRate.
func NewGossipCluster(cc core.ClusterConfig) (*GossipCluster, error) {
	cfg := cc.Core
	cfg.DisableConsolidation = true
	d, err := core.NewDeployment(cfg, cc.Seed, cc.N)
	if err != nil {
		return nil, err
	}
	g := &GossipCluster{
		cfg:      cfg,
		table:    d.Table,
		overlays: make(map[blob.Line]*gossip.Overlay),
		rng:      d.Rand,
	}
	if g.net, err = core.NewNetwork(cc, g.dispatch); err != nil {
		return nil, err
	}
	g.nodes = make([]*core.Node, cc.N)
	g.routers = make([]*gossip.Router, cc.N)
	for i := range g.nodes {
		g.nodes[i] = d.NewNode(i, g.net.Endpoint(i))
		g.routers[i] = gossip.NewRouter(i)
	}

	// One topic mesh per line over its holders.
	n := cfg.Blob.N()
	for kind := 0; kind < 2; kind++ {
		for idx := 0; idx < n; idx++ {
			l := blob.Line{Kind: blob.Row, Index: uint16(idx)}
			if kind == 1 {
				l.Kind = blob.Col
			}
			members := d.Table.Holders(l)
			if len(members) == 0 {
				continue
			}
			g.overlays[l] = gossip.NewOverlay(g.rng, members, gossip.DefaultDegree)
		}
	}
	return g, nil
}

func (g *GossipCluster) dispatch(node, from, size int, payload any) {
	chunk, ok := payload.(*custodyChunk)
	if !ok {
		g.nodes[node].HandleMessage(from, size, payload)
		return
	}
	overlay, ok := g.overlays[chunk.line]
	if !ok {
		return
	}
	fwd, isNew := g.routers[node].Receive(overlay, chunk.id, from)
	if !isNew {
		return
	}
	for _, peer := range fwd {
		g.net.Send(node, peer, size, chunk)
	}
	g.nodes[node].DeliverCustody(chunk.cells)
}

// Table exposes the epoch table.
func (g *GossipCluster) Table() *core.Table { return g.table }

// RunSlot publishes the blob through the topic meshes and measures
// per-node sampling completion.
func (g *GossipCluster) RunSlot(slot uint64) (*core.SlotResult, error) {
	start := g.net.Now()
	for _, nd := range g.nodes {
		nd.StartSlot(slot)
	}
	for _, r := range g.routers {
		r.Reset()
	}

	cfg := g.cfg
	n := cfg.Blob.N()
	copies := cfg.Redundancy
	if copies < 1 {
		copies = 1
	}
	g.net.After(0, func() {
		// The builder pushes every line into its topic: cells chunked to
		// datagram size, each chunk injected at `copies` random members
		// (the same outbound budget as PANDAS's redundant policy).
		for kind := 0; kind < 2; kind++ {
			for idx := 0; idx < n; idx++ {
				l := blob.Line{Kind: blob.Row, Index: uint16(idx)}
				if kind == 1 {
					l.Kind = blob.Col
				}
				overlay, ok := g.overlays[l]
				if !ok {
					continue
				}
				members := overlay.Members()
				cells := l.Cells(n)
				for startIdx := 0; startIdx < len(cells); startIdx += wire.MaxCellsPerMessage {
					end := min(startIdx+wire.MaxCellsPerMessage, len(cells))
					batch := make([]wire.Cell, 0, end-startIdx)
					for _, id := range cells[startIdx:end] {
						batch = append(batch, wire.Cell{ID: id})
					}
					g.nextMsg++
					chunk := &custodyChunk{id: gossip.MsgID(g.nextMsg), slot: slot, line: l, cells: batch}
					size := chunk.wireSize(cfg.Blob.CellBytes)
					entry := copies
					if entry > len(members) {
						entry = len(members)
					}
					for _, mi := range g.rng.Perm(len(members))[:entry] {
						g.net.Send(len(g.nodes), members[mi], size, chunk)
					}
				}
			}
		}
	})
	g.net.Run(start + 12*time.Second)

	sampling := make([]time.Duration, len(g.nodes))
	for i, nd := range g.nodes {
		sampling[i] = nd.Outcome(start).Sampling
	}
	return slotResult(g.net, sampling), nil
}
