package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/gateway"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

// GatewayLoadOptions parameterizes the sampling-gateway load harness:
// how many synthetic light clients hammer the gateway each slot, how
// their queries are distributed, and how the gateway itself is sized.
type GatewayLoadOptions struct {
	// Clients is the number of concurrent synthetic light clients
	// (default 100,000 — the "millions of users" workload scaled to one
	// gateway process).
	Clients int
	// QueriesPerClient is how many sampling queries each client issues
	// per slot, sequentially (default 3; with Clients concurrent
	// goroutines this keeps Clients queries in flight at all times).
	QueriesPerClient int
	// ZipfS is the zipf exponent of the cell-popularity distribution
	// (must be > 1; default 1.2 — light clients sample mostly-uniform
	// cells but block explorers and rollup watchers re-query hot ones).
	ZipfS float64
	// CacheBytes sizes the gateway hot-cell cache (default 8 MiB).
	CacheBytes int64
	// Workers sizes the gateway's upstream worker pool (default 64).
	Workers int
	// QueueDepth bounds the gateway admission queue (default 4096).
	QueueDepth int
	// MaxPerClient bounds one client's in-flight queries (default 8).
	MaxPerClient int
	// UpstreamBase and UpstreamJitter model the P2P fetch RTT the
	// gateway pays per upstream cell: base plus a deterministic
	// per-cell jitter in [0, UpstreamJitter) (defaults 500 µs + 2 ms).
	UpstreamBase, UpstreamJitter time.Duration
	// MaxRetries bounds per-query retry attempts after overload
	// rejections (default 100; each waits the gateway's hint).
	MaxRetries int
}

func (g GatewayLoadOptions) withDefaults() GatewayLoadOptions {
	if g.Clients == 0 {
		g.Clients = 100_000
	}
	if g.QueriesPerClient == 0 {
		g.QueriesPerClient = 3
	}
	if g.ZipfS <= 1 {
		g.ZipfS = 1.2
	}
	if g.CacheBytes == 0 {
		g.CacheBytes = 8 << 20
	}
	if g.Workers == 0 {
		g.Workers = 64
	}
	if g.QueueDepth == 0 {
		g.QueueDepth = 4096
	}
	if g.MaxPerClient == 0 {
		g.MaxPerClient = 8
	}
	if g.UpstreamBase == 0 {
		g.UpstreamBase = 500 * time.Microsecond
	}
	if g.UpstreamJitter == 0 {
		g.UpstreamJitter = 2 * time.Millisecond
	}
	if g.MaxRetries == 0 {
		g.MaxRetries = 100
	}
	return g
}

// clusterUpstream adapts a simulated PANDAS deployment to the gateway's
// Upstream interface: a fetch consults the custody nodes assigned to
// the cell's row/column (zero-copy Store.Peek), then any node, then the
// builder's prepared blob. Each fetch pays a simulated P2P RTT — the
// cost the cache and coalescer exist to avoid.
type clusterUpstream struct {
	cluster      *core.Cluster
	base, jitter time.Duration
}

func (u *clusterUpstream) FetchCell(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
	if u.base > 0 || u.jitter > 0 {
		d := u.base
		if u.jitter > 0 {
			d += time.Duration(gatewayKeyHash(slot, id) % uint64(u.jitter))
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return wire.Cell{}, ctx.Err()
		}
	}
	table := u.cluster.Table()
	nodes := u.cluster.Nodes()
	for _, l := range []blob.Line{
		{Kind: blob.Row, Index: id.Row},
		{Kind: blob.Col, Index: id.Col},
	} {
		for _, holder := range table.Holders(l) {
			if holder < 0 || holder >= len(nodes) {
				continue
			}
			if st := nodes[holder].Store(); st != nil {
				if c, ok := st.Peek(id); ok && c.Data != nil {
					return c, nil
				}
			}
		}
	}
	if c, ok := u.cluster.Builder().CellPayload(id); ok {
		return c, nil
	}
	return wire.Cell{}, fmt.Errorf("experiments: cell %v not held anywhere", id)
}

// gatewayKeyHash is the deterministic per-cell jitter source.
func gatewayKeyHash(slot uint64, id blob.CellID) uint64 {
	x := slot*0x9e3779b97f4a7c15 ^ uint64(id.Row)<<16 ^ uint64(id.Col)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x ^ x>>31
}

// GatewayLoad runs the sampling-as-a-service load harness: a simnet
// PANDAS cluster runs each slot to populate custody stores, then
// go.Clients synthetic light clients concurrently issue zipf-distributed
// sampling queries against a gateway fronting the cluster. It reports
// latency percentiles, cache hit rate, coalescing factor, and the
// upstream-fetch reduction.
//
// Samples are labelled by slot, plus "aggregate" over all slots, and
// carry Values only: per slot "queries" (completed), "hits", "joins",
// "upstream", "rejects" (overload rejections, every one retried),
// "verified" (fetched cells whose proof checked out), "bad proofs",
// "distinct" (cells the clients drew), "p50 us",
// "p99 us" and "qps"; in the aggregate the summed counters, "cells" (the
// query key space), "hit rate" (hits / queries), "coalesce" (queries
// resolved per upstream fetch, hits excluded), "reduction" (queries /
// upstream fetches — the fan-out saving) and the median over slots of
// "p50 us" and "p99 us", which keeps the report robust to one warm-up
// slot. The counts are deterministic for a fixed seed (queries are drawn
// from per-client seeded streams and every query eventually completes);
// the latencies are wall-clock measurements and vary run to run.
//
// The harness always runs the scaled-down real-payload geometry
// (32x32, identical code paths): the full 512x512 extension takes
// minutes of CPU and the gateway's behaviour is geometry-independent.
func GatewayLoad(o Options, gwo GatewayLoadOptions) (*Result, error) {
	o = o.withDefaults()
	gwo = gwo.withDefaults()
	// Force the real data plane at test geometry: the gateway serves
	// actual bytes and verifies actual proofs.
	o.Core = core.TestConfig()
	o.Core.RealPayloads = true
	if o.Nodes > 500 {
		o.Nodes = 500
	}

	c, err := newCluster(o, func(cc *core.ClusterConfig) {
		cc.Core.Policy = core.PolicyRedundant
	})
	if err != nil {
		return nil, err
	}
	data := make([]byte, o.Core.Blob.BlobBytes())
	for i := range data {
		data[i] = byte(i*131 + 17)
	}
	if err := c.Builder().PrepareBlob(data); err != nil {
		return nil, err
	}

	up := &clusterUpstream{cluster: c, base: gwo.UpstreamBase, jitter: gwo.UpstreamJitter}
	gw, err := gateway.New(gateway.Config{
		Upstream:     up,
		CacheBytes:   gwo.CacheBytes,
		Workers:      gwo.Workers,
		QueueDepth:   gwo.QueueDepth,
		MaxPerClient: gwo.MaxPerClient,
		VerifyProofs: true,
		RetainSlots:  2,
		Recorder:     o.Core.Recorder,
		Metrics:      o.Core.Metrics,
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()

	cells := o.Core.Blob.ExtendedCells()
	n := o.Core.Blob.N()
	res := &Result{
		Title: fmt.Sprintf("Gateway load — %d clients x %d queries/slot, zipf %.2f over %d cells, %d-node cluster",
			gwo.Clients, gwo.QueriesPerClient, gwo.ZipfS, cells, o.Nodes),
		Header: []string{"slot", "queries", "hits", "joins", "upstream", "rejects", "p50us", "p99us", "kqps"},
	}
	counters := []string{"queries", "hits", "joins", "upstream", "rejects", "verified", "bad proofs"}
	agg := &Sample{Label: "aggregate", Values: map[string]float64{"cells": float64(cells)}}
	var p50s, p99s []time.Duration

	// Per-client deterministic query streams: client i's zipf draws
	// depend only on the run seed and i, never on goroutine scheduling.
	rngs := make([]*rand.Rand, gwo.Clients)
	zipfs := make([]*rand.Zipf, gwo.Clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(o.Seed ^ int64(i)*0x9e3779b9 ^ 0x676174))
		zipfs[i] = rand.NewZipf(rngs[i], gwo.ZipfS, 1, uint64(cells-1))
	}

	lat := make([]time.Duration, gwo.Clients*gwo.QueriesPerClient)
	drawn := make([][]blob.CellID, gwo.Clients)

	var prev gateway.Stats
	for s := 1; s <= o.Slots; s++ {
		slot := uint64(s)
		if _, err := c.RunSlot(slot); err != nil {
			return nil, fmt.Errorf("slot %d: %w", s, err)
		}
		gw.StartSlot(slot, c.Builder().Commitment())

		start := time.Now()
		var wg sync.WaitGroup
		var firstErr error
		var errMu sync.Mutex
		wg.Add(gwo.Clients)
		for i := 0; i < gwo.Clients; i++ {
			i := i
			go func() {
				defer wg.Done()
				drawn[i] = drawn[i][:0]
				for q := 0; q < gwo.QueriesPerClient; q++ {
					id := blob.CellIDFromIndex(int(zipfs[i].Uint64()), n)
					drawn[i] = append(drawn[i], id)
					t0 := time.Now()
					if err := gatewayQueryRetry(gw, i, slot, id, gwo.MaxRetries); err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					lat[i*gwo.QueriesPerClient+q] = time.Since(t0)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if firstErr != nil {
			return nil, firstErr
		}

		distinct := make(map[blob.CellID]struct{}, cells)
		for i := range drawn {
			for _, id := range drawn[i] {
				distinct[id] = struct{}{}
			}
		}
		cur := gw.Stats()
		d := gatewayStatsDelta(cur, prev)
		prev = cur

		latency := obsv.NewDistribution(lat)
		p50s = append(p50s, latency.Median())
		p99s = append(p99s, latency.Percentile(99))
		completed := float64(gwo.Clients * gwo.QueriesPerClient)
		v := map[string]float64{
			"queries":    completed,
			"hits":       float64(d.CacheHits),
			"joins":      float64(d.CoalescedJoins),
			"upstream":   float64(d.UpstreamFetches),
			"rejects":    float64(d.Rejects),
			"verified":   float64(d.VerifiedCells),
			"bad proofs": float64(d.BadProofs),
			"distinct":   float64(len(distinct)),
			"p50 us":     float64(latency.Median().Microseconds()),
			"p99 us":     float64(latency.Percentile(99).Microseconds()),
			"qps":        completed / wall.Seconds(),
		}
		row := []string{fmt.Sprintf("%d", slot)}
		for _, name := range counters {
			agg.Values[name] += v[name]
		}
		for _, name := range []string{"queries", "hits", "joins", "upstream", "rejects", "p50 us", "p99 us"} {
			row = append(row, fmt.Sprintf("%.0f", v[name]))
		}
		res.add(&Sample{Label: row[0], Values: v}, append(row, fmt.Sprintf("%.0f", v["qps"]/1000))...)
	}

	a := agg.Values
	if a["queries"] > 0 {
		a["hit rate"] = a["hits"] / a["queries"]
	}
	if a["upstream"] > 0 {
		a["coalesce"] = (a["joins"] + a["upstream"]) / a["upstream"]
		a["reduction"] = a["queries"] / a["upstream"]
	}
	a["p50 us"] = float64(obsv.NewDistribution(p50s).Median().Microseconds())
	a["p99 us"] = float64(obsv.NewDistribution(p99s).Median().Microseconds())
	res.Samples = append(res.Samples, agg)
	res.Footer = []string{fmt.Sprintf(
		"aggregate: hit rate %.1f%%, coalesce %.1f queries/fetch, upstream reduction %.0fx, %.0f cells verified, %.0f bad proofs",
		a["hit rate"]*100, a["coalesce"], a["reduction"], a["verified"], a["bad proofs"])}
	return res, nil
}

// gatewayQueryRetry issues one query, honouring retry-after hints on
// overload. Every query eventually completes (or the run aborts), which
// is what keeps the run's count accounting deterministic under load.
func gatewayQueryRetry(gw *gateway.Gateway, client int, slot uint64, id blob.CellID, maxRetries int) error {
	for attempt := 0; ; attempt++ {
		_, err := gw.Query(context.Background(), client, slot, id)
		if err == nil {
			return nil
		}
		var ra *gateway.RetryAfterError
		if errors.As(err, &ra) && attempt < maxRetries {
			time.Sleep(ra.After)
			continue
		}
		return fmt.Errorf("experiments: gateway query client=%d slot=%d cell=%v: %w", client, slot, id, err)
	}
}

func gatewayStatsDelta(cur, prev gateway.Stats) gateway.Stats {
	return gateway.Stats{
		Queries:         cur.Queries - prev.Queries,
		CacheHits:       cur.CacheHits - prev.CacheHits,
		CoalescedJoins:  cur.CoalescedJoins - prev.CoalescedJoins,
		UpstreamFetches: cur.UpstreamFetches - prev.UpstreamFetches,
		UpstreamErrors:  cur.UpstreamErrors - prev.UpstreamErrors,
		Rejects:         cur.Rejects - prev.Rejects,
		VerifiedCells:   cur.VerifiedCells - prev.VerifiedCells,
		BadProofs:       cur.BadProofs - prev.BadProofs,
	}
}
