package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/fetch"
	"pandas/internal/gf65536"
	"pandas/internal/ids"
	"pandas/internal/kzg"
	"pandas/internal/rs"
	"pandas/internal/simnet"
	"pandas/internal/transport"
	"pandas/internal/wire"
)

// Probes are direct calls into one layer's exported functions at the
// geometry of the workload being traced, each a fixed number of
// iterations. A workload runs only the groups whose layers it exercises;
// fillMissing reports the rest as 0.

// probeSet is the context shared by one traced run's probes.
type probeSet struct {
	m     metrics
	seed  int64
	scale int // iteration divisor: 1, or 10 on a -quick run
	blob  blob.Params
	asg   assign.Params
	nodes int
}

var probeSink uint64

// timed runs fn iters times and returns the total wall time.
func timed(iters int, fn func()) time.Duration {
	begin := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(begin)
}

func (ps *probeSet) iters(n int) int { return max(1, n/ps.scale) }

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func runProbes(workload string, seed int64, quick bool, m metrics) {
	ps := &probeSet{m: m, seed: seed, scale: 1}
	if quick {
		ps.scale = 10
	}
	// Build the workload only for its geometry.
	switch workload {
	case "builder_slot":
		w := &builderSlot{}
		w.geometry(quick)
		ps.blob, ps.asg, ps.nodes = w.cfg.Blob, w.cfg.Assign, w.nodes
		ps.builderGroup()
	case "sim_dense", "sim_real_faulty":
		w := &simWorkload{dense: workload == "sim_dense"}
		w.geometry(seed, quick)
		ps.blob, ps.asg, ps.nodes = w.cc.Core.Blob, w.cc.Core.Assign, w.cc.N
		ps.simGroup()
		if !w.dense {
			ps.decodeGroup()
		}
	case "udp_local":
		w := &udpLocal{}
		n := w.geometry(quick)
		ps.blob, ps.asg, ps.nodes = w.cfg.Blob, w.cfg.Assign, n
		ps.decodeGroup()
		ps.wireGroup()
	}
}

// ---- builder_slot: encode side ----

func (ps *probeSet) builderGroup() {
	p := ps.blob
	rng := rand.New(rand.NewSource(ps.seed))

	const span = 64 << 10
	bufs := make([][]byte, 9)
	tabs := make([]*gf65536.MulTable16, 8)
	for i := range bufs {
		bufs[i] = make([]byte, span)
		rng.Read(bufs[i])
	}
	for i := range tabs {
		tabs[i] = gf65536.TableFor(uint16(0x1235 + 977*i))
	}
	n := ps.iters(2000)
	d := timed(n, func() { tabs[0].MulAdd(bufs[0], bufs[8]) })
	ps.m.put("gf65536.muladd_mbps", mbps(n*span, d))
	n = ps.iters(400)
	d = timed(n, func() {
		gf65536.MulAdd8(tabs[0], tabs[1], tabs[2], tabs[3], tabs[4], tabs[5], tabs[6], tabs[7],
			bufs[0], bufs[1], bufs[2], bufs[3], bufs[4], bufs[5], bufs[6], bufs[7], bufs[8])
	})
	ps.m.put("gf65536.muladd8_mbps", mbps(n*8*span, d))

	codec, err := rs.New16(p.K, p.N())
	if err != nil {
		probeFailed("rs.encode_mbps", err)
		return
	}
	shards := lineShards(p, rng)
	n = ps.iters(400)
	d = timed(n, func() {
		if err := codec.Encode(shards); err != nil {
			probeFailed("rs.encode_mbps", err)
		}
	})
	ps.m.put("rs.encode_mbps", mbps(n*p.K*p.CellBytes, d))

	data := make([]byte, p.BlobBytes())
	rng.Read(data)
	var ext *blob.Extended
	n = ps.iters(3)
	d = timed(n, func() {
		ext, err = blob.ExtendData(p, data, blob.ExtendOptions{Reuse: ext})
		if err != nil {
			probeFailed("blob.extend_ms", err)
		}
	})
	if ext == nil {
		return
	}
	ps.m.put("blob.extend_ms", ms(d)/float64(n))
	ps.m.put("blob.extend_mbps", mbps(n*p.BlobBytes(), d))

	cm := kzg.NewCommitter(p.N())
	var root kzg.Commitment
	d = timed(n, func() {
		cm.Reset(p.N())
		for r := 0; r < p.N(); r++ {
			cm.HashRow(r, ext.RowBytes(r), p.CellBytes)
		}
		root = cm.Root()
	})
	ps.m.put("kzg.commit_ms", ms(d)/float64(n))
	proofs := make([]kzg.Proof, p.ExtendedCells())
	d = timed(n, func() { cm.ProveAll(root, proofs, runtime.GOMAXPROCS(0), nil) })
	ps.m.put("kzg.prove_all_ms", ms(d)/float64(n))
	probeSink += uint64(proofs[0][0])
}

// lineShards returns one line's 2K shards with K random data shards and
// K allocated parity shards.
func lineShards(p blob.Params, rng *rand.Rand) [][]byte {
	shards := make([][]byte, p.N())
	for i := range shards {
		shards[i] = make([]byte, p.CellBytes)
		if i < p.K {
			rng.Read(shards[i])
		}
	}
	return shards
}

func probeFailed(name string, err error) {
	fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", name, err)
}

// ---- sim_real_faulty, udp_local: decode side ----

// nullTransport accepts and drops everything a node sends.
type nullTransport struct{ now time.Duration }

func (*nullTransport) Send(int, int, any)          {}
func (*nullTransport) SendReliable(int, int, any)  {}
func (*nullTransport) After(time.Duration, func()) {}
func (t *nullTransport) Now() time.Duration        { return t.now }

// captureTransport keeps the builder's seed datagrams per recipient.
type captureTransport struct {
	nullTransport
	seeds map[int][]*wire.Seed
	sizes map[int][]int
}

func (c *captureTransport) SendReliable(to, size int, payload any) {
	if s, ok := payload.(*wire.Seed); ok {
		c.seeds[to] = append(c.seeds[to], s)
		c.sizes[to] = append(c.sizes[to], size)
	}
}

func (ps *probeSet) decodeGroup() {
	p := ps.blob
	rng := rand.New(rand.NewSource(ps.seed))

	codec, err := rs.New16(p.K, p.N())
	if err != nil {
		probeFailed("rs.reconstruct", err)
		return
	}
	full := lineShards(p, rng)
	if err := codec.Encode(full); err != nil {
		probeFailed("rs.reconstruct", err)
		return
	}
	work := make([][]byte, p.N())
	erase := func(missing []int) {
		copy(work, full)
		for _, i := range missing {
			work[i] = nil
		}
	}
	// One erasure pattern repeated: after the first call the decode
	// matrix comes from the codec's LRU.
	alternate := make([]int, 0, p.K)
	for i := 0; i < p.N(); i += 2 {
		alternate = append(alternate, i)
	}
	n := ps.iters(400)
	var d time.Duration
	for i := 0; i < n+1; i++ {
		erase(alternate)
		begin := time.Now()
		err := codec.Reconstruct(work)
		if i > 0 { // the first call fills the LRU
			d += time.Since(begin)
		}
		if err != nil {
			probeFailed("rs.reconstruct_us_per_line", err)
			return
		}
	}
	ps.m.put("rs.reconstruct_us_per_line", float64(d.Microseconds())/float64(n))
	ps.m.put("rs.reconstruct_mbps", mbps(n*p.K*p.CellBytes, d))
	// A fresh pattern per call: every decode matrix is inverted anew.
	n = ps.iters(60)
	d = 0
	for i := 0; i < n; i++ {
		erase(rng.Perm(p.N())[:p.K])
		begin := time.Now()
		err := codec.Reconstruct(work)
		d += time.Since(begin)
		if err != nil {
			probeFailed("rs.reconstruct_cold_us_per_line", err)
			return
		}
	}
	ps.m.put("rs.reconstruct_cold_us_per_line", float64(d.Microseconds())/float64(n))

	// A prepared blob, its seed datagrams, and the table behind them.
	cfg := core.DefaultConfig()
	cfg.Blob, cfg.Assign, cfg.RealPayloads = p, ps.asg, true
	cfg.Samples = 16
	table, err := core.NewTable(ps.asg, epochSeed(ps.seed), testNodeIDs(ps.seed, ps.nodes))
	if err != nil {
		probeFailed("core.NewTable", err)
		return
	}
	capture := &captureTransport{seeds: map[int][]*wire.Seed{}, sizes: map[int][]int{}}
	builder := core.NewBuilder(cfg, ps.nodes, ids.NewTestIdentity(ps.seed).ID, table, capture, ps.seed+5)
	data := make([]byte, p.BlobBytes())
	rng.Read(data)
	if err := builder.PrepareBlob(data); err != nil {
		probeFailed("core.Builder.PrepareBlob", err)
		return
	}
	const slot = 1
	builder.SeedSlot(slot)
	commitment := builder.Commitment()

	// Every cell of node 0's custody lines, from the builder.
	a := table.Assignment(0)
	var custody []wire.Cell
	seen := map[blob.CellID]bool{}
	for _, l := range a.Lines() {
		for _, id := range l.Cells(p.N()) {
			if c, _ := builder.CellPayload(id); !seen[id] {
				seen[id] = true
				custody = append(custody, c)
			}
		}
	}

	store := core.NewStore(p, a, true, false)
	n = ps.iters(40)
	d = 0
	for i := 0; i < n; i++ {
		store.Reset(a, true, false)
		begin := time.Now()
		for _, c := range custody {
			if _, err := store.Add(c); err != nil {
				probeFailed("core.store_add_ns_per_cell", err)
				return
			}
		}
		d += time.Since(begin)
	}
	ps.m.put("core.store_add_ns_per_cell", nsPer(d, n*len(custody)))

	// Half of one custody line present; TryReconstruct restores and
	// proves the other half.
	line := a.Lines()[0]
	n = ps.iters(100)
	d = 0
	for i := 0; i < n; i++ {
		store.Reset(a, true, false)
		store.SetCommitment(commitment)
		for pos, id := range line.Cells(p.N()) {
			if pos%2 == 0 {
				c, _ := builder.CellPayload(id)
				if _, err := store.Add(c); err != nil {
					probeFailed("core.store_reconstruct_us_per_line", err)
					return
				}
			}
		}
		begin := time.Now()
		cells, err := store.TryReconstruct(line)
		d += time.Since(begin)
		if err != nil || len(cells) != p.K {
			probeFailed("core.store_reconstruct_us_per_line", fmt.Errorf("%d cells restored: %v", len(cells), err))
			return
		}
	}
	ps.m.put("core.store_reconstruct_us_per_line", float64(d.Microseconds())/float64(n))

	n = ps.iters(20)
	bad := 0
	d = timed(n, func() {
		for _, c := range custody {
			if !kzg.Verify(commitment, c.ID, c.Data, c.Proof) {
				bad++
			}
		}
	})
	ps.m.put("kzg.verify_ns_per_cell", nsPer(d, n*len(custody)))
	cellIDs := make([]blob.CellID, len(custody))
	payloads := make([][]byte, len(custody))
	proofs := make([]kzg.Proof, len(custody))
	ok := make([]bool, len(custody))
	for i, c := range custody {
		cellIDs[i], payloads[i], proofs[i] = c.ID, c.Data, c.Proof
	}
	const batch = 64
	d = timed(n, func() {
		for lo := 0; lo+batch <= len(custody); lo += batch {
			bad += batch - kzg.VerifyBatch(commitment, cellIDs[lo:lo+batch], payloads[lo:lo+batch], proofs[lo:lo+batch], ok)
		}
	})
	ps.m.put("kzg.verify_batch_ns_per_cell", nsPer(d, n*(len(custody)/batch)*batch))
	if bad > 0 {
		probeFailed("kzg.verify", fmt.Errorf("%d builder cells failed verification", bad))
	}

	// The captured seed datagrams of eight nodes, fed to fresh nodes the
	// way a transport would deliver them; the last datagram of a batch
	// also starts the node's first fetch round.
	tr := &nullTransport{}
	nodes := make([]*core.Node, min(8, ps.nodes))
	seedCells := 0
	for i := range nodes {
		nodes[i] = core.NewNode(cfg, i, table, tr, ps.seed^int64(i))
		for _, s := range capture.seeds[i] {
			seedCells += len(s.Cells)
		}
	}
	n = ps.iters(10)
	d = 0
	for it := 0; it < n; it++ {
		for i, node := range nodes {
			node.StartSlot(slot)
			begin := time.Now()
			for j, s := range capture.seeds[i] {
				node.HandleMessage(ps.nodes, capture.sizes[i][j], s)
			}
			d += time.Since(begin)
		}
	}
	ps.m.put("core.node_seed_ingest_ns_per_cell", nsPer(d, n*max(1, seedCells)))

	// Node 0 now holds its seed cells; serve queries for them.
	var held []blob.CellID
	for _, s := range capture.seeds[0] {
		for _, c := range s.Cells {
			held = append(held, c.ID)
		}
	}
	if len(held) == 0 {
		probeFailed("core.node_query_serve_ns_per_cell", fmt.Errorf("node 0 was seeded no cells"))
		return
	}
	held = held[:min(len(held), 32)]
	q := &wire.Query{Slot: slot, Cells: held}
	size := q.WireSize(p.CellBytes)
	n = ps.iters(4000)
	d = timed(n, func() { nodes[0].HandleMessage(1, size, q) })
	ps.m.put("core.node_query_serve_ns_per_cell", nsPer(d, n*len(held)))
}

// ---- sim_dense, sim_real_faulty: planner and simulator ----

func (ps *probeSet) simGroup() {
	p, a := ps.blob, ps.asg
	rng := rand.New(rand.NewSource(ps.seed))
	nodeIDs := testNodeIDs(ps.seed, ps.nodes)
	seed := epochSeed(ps.seed)

	n := ps.iters(3)
	var table *core.Table
	d := timed(n, func() {
		var err error
		if table, err = core.NewTable(a, seed, nodeIDs); err != nil {
			probeFailed("core.table_build_ms", err)
		}
	})
	if table == nil {
		return
	}
	ps.m.put("core.table_build_ms", ms(d)/float64(n))
	n = min(len(nodeIDs), ps.iters(2000))
	d = timed(1, func() {
		for _, id := range nodeIDs[:n] {
			asg, _ := assign.For(a, seed, id) // NewTable above already proved the parameters valid
			probeSink += uint64(len(asg.Rows))
		}
	})
	ps.m.put("assign.for_ns_per_node", nsPer(d, n))

	// One node's first-round planning problem at this network's density:
	// F is the missing half of each custody line plus the samples; the
	// candidates are the real holders of every line crossing F.
	self := 0
	var F []blob.CellID
	index := map[blob.CellID]int{}
	add := func(id blob.CellID) {
		if _, ok := index[id]; !ok {
			index[id] = len(F)
			F = append(F, id)
		}
	}
	for _, l := range table.Assignment(self).Lines() {
		for pos, id := range l.Cells(p.N()) {
			if pos%2 == 1 {
				add(id)
			}
		}
	}
	for i := 0; i < 16; i++ {
		add(blob.CellIDFromIndex(rng.Intn(p.ExtendedCells()), p.N()))
	}
	cellsOfPeer := map[int][]int{}
	for i, id := range F {
		for _, l := range []blob.Line{{Kind: blob.Row, Index: id.Row}, {Kind: blob.Col, Index: id.Col}} {
			for _, h := range table.Holders(l) {
				if h != self {
					cellsOfPeer[h] = append(cellsOfPeer[h], i)
				}
			}
		}
	}
	peers := make([]int, 0, len(cellsOfPeer))
	for peer := range cellsOfPeer {
		peers = append(peers, peer)
	}
	sort.Ints(peers)
	scored := make([]fetch.Scored, len(peers))
	candidates := make([]fetch.Candidate, len(peers))
	for i, peer := range peers {
		scored[i] = fetch.Scored{Peer: peer, Score: len(cellsOfPeer[peer])}
		candidates[i] = fetch.Candidate{Peer: peer, Cells: cellsOfPeer[peer]}
	}
	counts := make([]int, len(F))
	n = ps.iters(1000)
	d = timed(n, func() {
		clear(counts)
		plan := fetch.PlanLazyFrom(scored, counts, 2, func(peer int) []int { return cellsOfPeer[peer] })
		probeSink += uint64(len(plan))
	})
	ps.m.put("fetch.plan_lazy_us_per_call", nsPer(d, n)/1000)
	d = timed(n, func() {
		plan := fetch.Plan(candidates, len(F), 2, fetch.DefaultCBBoost)
		probeSink += uint64(len(plan))
	})
	ps.m.put("fetch.plan_us_per_call", nsPer(d, n)/1000)

	// The event engine alone: a steady population of timers, each
	// re-arming itself at a random delay.
	engine := simnet.NewEngine(ps.seed)
	total := ps.iters(400000)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < total {
			engine.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, tick)
		}
	}
	for i := 0; i < 4096; i++ {
		engine.After(time.Duration(rng.Intn(1000))*time.Microsecond, tick)
	}
	d = timed(1, func() { engine.Run(time.Hour) })
	ps.m.put("simnet.engine_ns_per_event", nsPer(d, int(engine.Executed())))

	// Network.Send through delivery: uplink, propagation, downlink.
	net, err := simnet.New(simnet.Config{Latency: simnet.ConstantLatency(20 * time.Millisecond), LossRate: 0.03, Seed: ps.seed})
	if err != nil {
		probeFailed("simnet.send_deliver_ns_per_msg", err)
		return
	}
	delivered := 0
	const endpoints = 64
	for i := 0; i < endpoints; i++ {
		net.AddNode(func(int, int, any) { delivered++ }, simnet.NodeBandwidth, simnet.NodeBandwidth)
	}
	msgs := ps.iters(200000)
	d = timed(1, func() {
		for i := 0; i < msgs; i++ {
			net.Send(i%endpoints, (i*7+1)%endpoints, 600, nil)
			if i%1024 == 1023 {
				net.Run(net.Now() + 10*time.Millisecond)
			}
		}
		net.Run(net.Now() + time.Hour)
	})
	ps.m.put("simnet.send_deliver_ns_per_msg", nsPer(d, msgs))
	probeSink += uint64(delivered)
}

// ---- udp_local: wire codec and sockets ----

func (ps *probeSet) wireGroup() {
	p := ps.blob
	rng := rand.New(rand.NewSource(ps.seed))
	cells := make([]wire.Cell, wire.MaxCellsPerMessage)
	cellIDs := make([]blob.CellID, len(cells))
	for i := range cells {
		id := blob.CellIDFromIndex(rng.Intn(p.ExtendedCells()), p.N())
		cells[i] = wire.Cell{ID: id, Data: make([]byte, p.CellBytes)}
		rng.Read(cells[i].Data)
		rng.Read(cells[i].Proof[:])
		cellIDs[i] = id
	}
	seed := &wire.Seed{Slot: 1, ChunkCount: 1, Cells: cells}
	query := &wire.Query{Slot: 1, Cells: cellIDs}
	response := &wire.Response{Slot: 1, Cells: cells}

	codec := func(name string, msg wire.Message, per int, iters int) []byte {
		var enc []byte
		var err error
		n := ps.iters(iters)
		d := timed(n, func() { enc, err = wire.Encode(msg, p.CellBytes) })
		if err != nil {
			probeFailed("wire.encode_"+name, err)
			return nil
		}
		suffix := "_ns"
		if per > 1 {
			suffix = "_ns_per_cell"
		}
		ps.m.put("wire.encode_"+name+suffix, nsPer(d, n*per))
		d = timed(n, func() {
			var m wire.Message
			m, err = wire.Decode(enc, p.CellBytes)
			probeSink += uint64(m.Type())
		})
		if err != nil {
			probeFailed("wire.decode_"+name, err)
			return nil
		}
		ps.m.put("wire.decode_"+name+suffix, nsPer(d, n*per))
		return enc
	}
	codec("seed", seed, len(cells), 2000)
	codec("query", query, 1, 20000)
	enc := codec("response", response, len(cells), 2000)
	if enc == nil {
		return
	}
	var before, after runtime.MemStats
	n := ps.iters(1000)
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m, _ := wire.Decode(enc, p.CellBytes) // decoded without error just above
		probeSink += uint64(m.Type())
	}
	runtime.ReadMemStats(&after)
	ps.m.put("wire.decode_allocs_per_msg", float64(after.Mallocs-before.Mallocs)/float64(n))

	// Two endpoints on the loopback interface.
	a, errA := transport.NewUDP(0, "127.0.0.1:0", p.CellBytes)
	b, errB := transport.NewUDP(1, "127.0.0.1:0", p.CellBytes)
	if errA != nil || errB != nil {
		probeFailed("transport.NewUDP", fmt.Errorf("%v %v", errA, errB))
		return
	}
	defer a.Close()
	defer b.Close()
	addrs := []string{a.Addr(), b.Addr()}
	if err := a.SetPeers(addrs); err != nil {
		probeFailed("transport.SetPeers", err)
		return
	}
	if err := b.SetPeers(addrs); err != nil {
		probeFailed("transport.SetPeers", err)
		return
	}
	var received, receivedBytes atomic.Int64
	pong := make(chan struct{}, 1)
	small := &wire.Response{Slot: 1, Cells: cells[:1]}
	ping := &wire.Query{Slot: 1, Cells: cellIDs[:1]}
	b.Start(func(from, size int, payload any) {
		if _, ok := payload.(*wire.Query); ok {
			b.Send(0, small.WireSize(p.CellBytes), small)
			return
		}
		received.Add(1)
		receivedBytes.Add(int64(size))
	})
	a.Start(func(from, size int, payload any) { pong <- struct{}{} })

	// Round trips, one in flight: query out, one-cell response back.
	n = ps.iters(3000)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		begin := time.Now()
		a.Send(1, ping.WireSize(p.CellBytes), ping)
		select {
		case <-pong:
			rtts = append(rtts, float64(time.Since(begin).Nanoseconds())/1000)
		case <-time.After(200 * time.Millisecond): // lost on loopback: skip the sample
		}
	}
	tail, _ := tailPercentile(len(rtts))
	ps.m.put("transport.udp_rtt_p50_us", percentile(rtts, 50))
	ps.m.put("transport.udp_rtt_p99_us", percentile(rtts, tail))

	// Send cost alone, for a 16-cell response, paced so the receiver
	// keeps up.
	mid := &wire.Response{Slot: 1, Cells: cells[:16]}
	midSize := mid.WireSize(p.CellBytes)
	n = ps.iters(4000)
	var d time.Duration
	for i := 0; i < n; i++ {
		begin := time.Now()
		a.Send(1, midSize, mid)
		d += time.Since(begin)
		if i%32 == 31 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	ps.m.put("transport.udp_send_ns_per_msg", nsPer(d, n))
	waitQuiet(&received)

	// Full-size datagrams as fast as Send returns.
	received.Store(0)
	receivedBytes.Store(0)
	n = ps.iters(3000)
	fullSize := response.WireSize(p.CellBytes)
	begin := time.Now()
	for i := 0; i < n; i++ {
		a.Send(1, fullSize, response)
	}
	d = waitQuiet(&received).Sub(begin)
	ps.m.put("transport.udp_blast_mbps", mbps(int(receivedBytes.Load()), d))
	ps.m.put("transport.udp_blast_drop_share", 1-float64(received.Load())/float64(n))
}

// quietWindow is how long a receive counter must stand still before the
// socket is considered drained.
const quietWindow = 30 * time.Millisecond

// waitQuiet blocks until counter has not moved for quietWindow and
// returns when it last moved.
func waitQuiet(counter *atomic.Int64) time.Time {
	last, moved := counter.Load(), time.Now()
	for time.Since(moved) < quietWindow {
		time.Sleep(time.Millisecond)
		if now := counter.Load(); now != last {
			last, moved = now, time.Now()
		}
	}
	return moved
}
