package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/ids"
	"pandas/internal/obsv"
	"pandas/internal/transport"
	"pandas/internal/wire"
)

// udpLocal runs slots over real UDP sockets on the loopback interface:
// every node and the builder own a socket and an event loop, messages go
// through wire.Encode/Decode, and nodes verify proposer signatures and
// cell proofs on receipt. It is wired here the way transport.NewLocalnet
// wires it, so that each endpoint's core.Transport and receive handler
// can be decorated and the builder's SeedingReport kept.
type udpLocal struct {
	cfg       core.Config
	table     *core.Table
	nodes     []*core.Node
	builder   *core.Builder
	endpoints []*transport.UDP // nodes 0..N-1, builder at N
	data      []byte
	tr        *tracer
	ring      *obsv.Ring
	// epoch is the one clock every endpoint's Now reads, so a node's
	// completion times compare directly with the harness's slot start.
	epoch time.Time

	sent, sentBytes, handled atomic.Int64
}

// tracedUDP decorates one endpoint's core.Transport: a span and a count
// per datagram while the tracer is on, a plain call otherwise.
type tracedUDP struct {
	*transport.UDP
	w *udpLocal
}

func (t tracedUDP) Send(to, size int, payload any) {
	if !t.w.tr.enabled() {
		t.UDP.Send(to, size, payload)
		return
	}
	sp := t.w.tr.begin("transport.Send")
	t.UDP.Send(to, size, payload)
	t.w.tr.end(sp)
	t.w.sent.Add(1)
	t.w.sentBytes.Add(int64(size))
}

func (t tracedUDP) SendReliable(to, size int, payload any) { t.Send(to, size, payload) }

func (t tracedUDP) Now() time.Duration { return time.Since(t.w.epoch) }

// geometry fixes the workload's parameters and returns its node count.
func (w *udpLocal) geometry(quick bool) int {
	w.cfg = core.DefaultConfig()
	w.cfg.Blob = blob.Params{K: 32, CellBytes: 512, ProofBytes: 48}
	w.cfg.Assign = assign.Params{Rows: 4, Cols: 4, N: w.cfg.Blob.N()}
	w.cfg.Samples = 16
	w.cfg.RealPayloads = true
	// Three times the protocol's 400 ms, to stay clear of the nil-map
	// defect recorded in README.md: if a node's seed flow goes quiet for
	// SeedWait and a boost datagram lands afterwards, the node panics and
	// the process dies. With two cores for 129 event loops and as many
	// receive loops a loaded box does stall one node's datagrams that long
	// (two runs side by side crashed 4 times in 14 at 400 ms, once in 20
	// at 1.2 s; runs on their own never did). Nothing else reads SeedWait
	// here: on loopback every node receives its whole seed batch, so none
	// waits for the watchdog.
	w.cfg.SeedWait = 1200 * time.Millisecond
	if quick {
		w.cfg.Blob.K = 8
		w.cfg.Assign.N = w.cfg.Blob.N()
		w.cfg.Samples = 6
		return 16
	}
	return udpNodes
}

func (w *udpLocal) build(seed int64, quick bool, tr *tracer) error {
	w.tr = tr
	w.epoch = time.Now()
	n := w.geometry(quick)
	if tr.enabled() {
		w.ring = obsv.MustRing(w.cfg.TraceRing)
		w.cfg.Recorder = &gatedRecorder{tr: tr, ring: w.ring}
	}
	cfg := w.cfg

	sp := tr.begin("core.NewTable")
	table, err := core.NewTable(cfg.Assign, epochSeed(seed), testNodeIDs(seed, n))
	tr.end(sp)
	if err != nil {
		return err
	}
	w.table = table

	// Bind every endpoint before any peer table is installed.
	sp = tr.begin("transport.NewUDP")
	addrs := make([]string, n+1)
	for i := 0; i <= n; i++ {
		ep, err := transport.NewUDP(i, "127.0.0.1:0", cfg.Blob.CellBytes)
		if err != nil {
			return err
		}
		w.endpoints = append(w.endpoints, ep)
		addrs[i] = ep.Addr()
	}
	for _, ep := range w.endpoints {
		if err := ep.SetPeers(addrs); err != nil {
			return err
		}
	}
	tr.end(sp)

	proposer := ids.NewTestIdentity(seed<<20 + int64(n) + 1)
	for i := 0; i < n; i++ {
		node := core.NewNode(cfg, i, table, tracedUDP{w.endpoints[i], w}, seed^int64(i*7919))
		node.SetSeedVerification(proposer.Public)
		w.nodes = append(w.nodes, node)
		w.endpoints[i].Start(func(from, size int, payload any) {
			if !tr.enabled() {
				node.HandleMessage(from, size, payload)
				return
			}
			sp := tr.begin("core.Node.HandleMessage")
			node.HandleMessage(from, size, payload)
			tr.end(sp)
			w.handled.Add(1)
		})
	}
	builderID := ids.NewTestIdentity(seed<<20 + int64(n)).ID
	w.builder = core.NewBuilder(cfg, n, builderID, table, tracedUDP{w.endpoints[n], w}, seed+5)
	w.builder.SetProposerSigner(func(slot uint64) [wire.SigSize]byte {
		var sig [wire.SigSize]byte
		copy(sig[:], proposer.Sign(wire.SeedSigningBytes(slot, builderID)))
		return sig
	})
	w.endpoints[n].Start(func(from, size int, payload any) {})

	w.data = make([]byte, cfg.Blob.BlobBytes())
	rand.New(rand.NewSource(seed)).Read(w.data)
	return nil
}

// pollInterval is how often runSlot asks the unfinished nodes whether
// they are done. It quantizes slot_wall_s, not the nodes' own times.
const pollInterval = 10 * time.Millisecond

func (w *udpLocal) runSlot(slot uint64) (slotResult, error) {
	n := len(w.nodes)
	started := make(chan struct{}, n)
	for i, node := range w.nodes {
		w.endpoints[i].Run(func() {
			node.StartSlot(slot)
			started <- struct{}{}
		})
	}
	for range w.nodes {
		<-started
	}
	var recorded uint64
	if w.ring != nil {
		recorded = w.ring.Recorded()
	}
	sent, sentBytes, handled := w.sent.Load(), w.sentBytes.Load(), w.handled.Load()

	// The slot starts when the blob reaches the builder.
	stamp(w.data, slot)
	begin := time.Since(w.epoch)
	type seeded struct {
		report core.SeedingReport
		err    error
	}
	seedDone := make(chan seeded, 1)
	w.endpoints[n].Run(func() {
		sp := w.tr.begin("core.Builder.PrepareAndSeed")
		report, err := w.builder.PrepareAndSeed(slot, w.data)
		w.tr.end(sp)
		seedDone <- seeded{report, err}
	})

	// Closed loop: the slot returns when every node has consolidated and
	// sampled, or at the deadline.
	done := make([]bool, n)
	remaining := n
	type status struct {
		node int
		done bool
	}
	replies := make(chan status, n)
	timeout := time.After(w.cfg.Deadline)
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
poll:
	for remaining > 0 {
		select {
		case <-timeout:
			break poll
		case <-ticker.C:
			asked := 0
			for i, node := range w.nodes {
				if done[i] {
					continue
				}
				asked++
				w.endpoints[i].Run(func() {
					v := node.Metrics()
					replies <- status{i, v.Sampled && v.Consolidated}
				})
			}
			for ; asked > 0; asked-- {
				if s := <-replies; s.done {
					done[s.node] = true
					remaining--
				}
			}
		}
	}
	s := <-seedDone
	if s.err != nil {
		return slotResult{}, s.err
	}

	views := make(chan obsv.NodeView, n)
	for i, node := range w.nodes {
		w.endpoints[i].Run(func() {
			v := node.Metrics()
			// The node may still append to and update its rounds.
			v.Rounds = append([]obsv.RoundStat(nil), v.Rounds...)
			views <- v
		})
	}
	sr := slotResult{builderBytes: s.report.Bytes, msgNodes: n, nodes: make([]nodeObs, 0, n)}
	for range w.nodes {
		v := <-views
		sr.msgs += float64(v.FetchMsgsSent + v.FetchMsgsRecv)
		sr.msgBytes += float64(v.FetchBytesSent + v.FetchBytesRecv)
		o := nodeObs{seed: -1, consolidation: -1, rounds: v.Rounds}
		if v.HasSeed {
			o.seed = v.FirstSeedAt - begin
		}
		if v.Consolidated {
			o.consolidation = v.ConsolidatedAt - begin
		}
		sr.nodes = append(sr.nodes, o)
		if v.Sampled {
			sr.opMs = append(sr.opMs, ms(v.SampledAt-begin))
		} else {
			sr.opMs = append(sr.opMs, neverMs)
		}
	}
	if w.ring != nil {
		sr.obsvEvents = w.ring.Recorded() - recorded
	}
	sr.udpSent = uint64(w.sent.Load() - sent)
	sr.udpBytes = uint64(w.sentBytes.Load() - sentBytes)
	sr.udpHandled = uint64(w.handled.Load() - handled)
	return sr, nil
}

// verify runs the same checks as the real-payload simulation, each on
// the node's own event loop because late datagrams may still be landing
// in its store.
func (w *udpLocal) verify() error {
	errs := make(chan error, len(w.nodes))
	for i, node := range w.nodes {
		w.endpoints[i].Run(func() {
			errs <- func() error {
				if err := samplesHeld(node); err != nil || i >= 8 || !node.Metrics().Sampled {
					return err
				}
				return custodyMatchesBuilder(node, w.table.Assignment(i), w.builder, w.cfg.Blob.N())
			}()
		})
	}
	var first error
	for range w.nodes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (w *udpLocal) close() {
	for _, ep := range w.endpoints {
		_ = ep.Close() // a socket that fails to close is gone either way
	}
	w.endpoints = nil
}
