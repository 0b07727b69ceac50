package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/latency"
	"pandas/internal/obsv"
)

// simWorkload runs slots on the discrete-event simulator, in one of two
// shapes. Dense: metadata cells and a network dense enough (>64 holders
// per line) that the round planner's bounded holder window engages — all
// planner and simulator, no codec. Real-faulty: real payloads with proof
// verification, sparse holders, a fifth of the nodes dead and 3 % loss —
// line reconstruction, proof checks and multi-round timeouts.
type simWorkload struct {
	dense bool

	cc      core.ClusterConfig
	cluster *core.Cluster
	data    []byte
	tr      *tracer
	ring    *gatedRecorder
}

// geometry fixes the workload's parameters (see main.go for the sizes).
func (w *simWorkload) geometry(seed int64, quick bool) {
	cfg := core.DefaultConfig()
	cc := core.ClusterConfig{Seed: seed, LossRate: 0.03}
	if w.dense {
		cfg.Blob = blob.Params{K: 16, CellBytes: 512, ProofBytes: 48}
		cfg.Assign = assign.Params{Rows: 2, Cols: 2, N: cfg.Blob.N()}
		cfg.Samples = 16
		cc.N = denseNodes
	} else {
		cfg.Blob = blob.Params{K: 32, CellBytes: 512, ProofBytes: 48}
		cfg.Assign = assign.Params{Rows: 4, Cols: 4, N: cfg.Blob.N()}
		cfg.Samples = 30
		cfg.RealPayloads = true
		cc.N = faultyNodes
		cc.DeadFraction = 0.2
		cc.VerifySeeds = true
	}
	if quick {
		// A tenth of the nodes, and for the sparse workload a sixteenth of
		// the lines as well so that every line keeps live holders.
		cc.N /= 10
		if !w.dense {
			cfg.Blob.K = 8
			cfg.Assign.N = cfg.Blob.N()
			cfg.Samples = 8
		}
	}
	// The latency map is part of the workload, like the node count: one
	// fixed planetary topology for every seed. Drawn per seed, a network
	// this small lands in a different regional mix each time and the
	// median sampling time moves by 6 % between seeds; the seed still
	// draws identities, custody, the dead set, samples and losses.
	cc.Latency = latency.NewIPFSLike(topologySeed, cc.N+1)
	cc.Core = cfg
	w.cc = cc
}

func (w *simWorkload) build(seed int64, quick bool, tr *tracer) error {
	w.tr = tr
	w.geometry(seed, quick)
	if tr.enabled() {
		// Only a traced run attaches a recorder: the untraced run keeps
		// the nil-recorder path every emission site is gated on.
		w.ring = &gatedRecorder{tr: tr, ring: obsv.MustRing(w.cc.Core.TraceRing)}
		w.cc.Core.Recorder = w.ring
	}
	sp := tr.begin("core.NewCluster")
	c, err := core.NewCluster(w.cc)
	tr.end(sp)
	if err != nil {
		return err
	}
	w.cluster = c
	if w.cc.Core.RealPayloads {
		w.data = make([]byte, w.cc.Core.Blob.BlobBytes())
		rand.New(rand.NewSource(seed)).Read(w.data)
	}
	return nil
}

func (w *simWorkload) runSlot(slot uint64) (slotResult, error) {
	c := w.cluster
	if w.data != nil {
		stamp(w.data, slot)
		sp := w.tr.begin("core.Builder.PrepareBlob")
		err := c.Builder().PrepareBlob(w.data)
		w.tr.end(sp)
		if err != nil {
			return slotResult{}, err
		}
	}
	eventsBefore := c.Network().Engine().Executed()
	var recorded uint64
	if w.ring != nil {
		recorded = w.ring.ring.Recorded()
	}
	sp := w.tr.begin("core.Cluster.RunSlot")
	res, err := c.RunSlot(slot)
	w.tr.end(sp)
	if err != nil {
		return slotResult{}, err
	}
	sr := slotResult{
		builderBytes: res.Seeding.Bytes,
		simEvents:    c.Network().Engine().Executed() - eventsBefore,
		simDropped:   uint64(res.Dropped),
		nodes:        make([]nodeObs, 0, len(res.Outcomes)),
	}
	if w.ring != nil {
		sr.obsvEvents = w.ring.ring.Recorded() - recorded
	}
	deadline := w.cc.Core.Deadline
	for i, o := range res.Outcomes {
		if o.Dead {
			continue
		}
		sr.msgNodes++
		sr.msgs += float64(o.FetchMsgs)
		sr.msgBytes += float64(o.FetchBytes)
		sr.simSent += uint64(c.Nodes()[i].Metrics().FetchMsgsSent)
		sr.nodes = append(sr.nodes, nodeObs{seed: o.Seed, consolidation: o.Consolidation, rounds: o.Rounds})
		if !o.EligibleAt(deadline) {
			continue
		}
		if o.Sampling >= 0 {
			sr.opMs = append(sr.opMs, ms(o.Sampling))
		} else {
			sr.opMs = append(sr.opMs, neverMs)
		}
	}
	return sr, nil
}

// verify checks the state the last slot left in the nodes: every node
// that reported sampling complete holds each of its sampled cells, and —
// with real payloads — the custody cells eight nodes stored are byte for
// byte the builder's.
func (w *simWorkload) verify() error {
	c := w.cluster
	for _, n := range c.Nodes() {
		if err := samplesHeld(n); err != nil {
			return err
		}
	}
	if w.data == nil {
		return nil
	}
	checked := 0
	for i, n := range c.Nodes() {
		if checked == 8 {
			break
		}
		if !n.Metrics().Consolidated {
			continue
		}
		checked++
		if err := custodyMatchesBuilder(n, c.Table().Assignment(i), c.Builder(), w.cc.Core.Blob.N()); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// samplesHeld checks that a node which reported sampling complete holds
// every cell it sampled.
func samplesHeld(n *core.Node) error {
	if !n.Metrics().Sampled {
		return nil
	}
	for _, id := range n.Samples() {
		if !n.Store().Has(id) {
			return fmt.Errorf("node %d reported sampling complete without sampled cell %v", n.Index(), id)
		}
	}
	return nil
}

// custodyMatchesBuilder compares every custody cell a node stored with
// the builder's own copy of that cell.
func custodyMatchesBuilder(n *core.Node, a assign.Assignment, b *core.Builder, width int) error {
	for _, l := range a.Lines() {
		for _, id := range l.Cells(width) {
			got, ok := n.Store().Peek(id)
			if !ok {
				continue
			}
			want, _ := b.CellPayload(id)
			if !bytes.Equal(got.Data, want.Data) {
				return fmt.Errorf("stored custody cell %v differs from the builder's", id)
			}
		}
	}
	return nil
}

func (w *simWorkload) close() {}
