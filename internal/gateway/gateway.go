// Package gateway implements the sampling-as-a-service frontend: a
// concurrent query layer on top of a PANDAS full node that serves
// light-client data-availability queries of the form (slot, row, col)
// -> cell + proof.
//
// The paper's sampling role ends at full nodes; this package is the
// piece that faces "millions of users" (ROADMAP north star). Per-query
// upstream fan-out is the dominant cost at that scale (Król et al.
// 2023), so the gateway is built around making upstream work
// proportional to DISTINCT cells rather than to clients:
//
//   - a singleflight coalescer (coalesce.go) shares one upstream fetch
//     among every concurrent waiter on the same cell;
//   - a sharded hot-cell LRU cache (cache.go), sized in bytes and
//     evicted per slot, serves repeat queries without any upstream
//     traffic;
//   - a bounded worker/admission layer (this file) enforces per-client
//     fairness and converts overload into an explicit retry-after
//     error instead of unbounded goroutines or silent queueing.
//
// Proofs are checked per cell by the worker that fetched it, against the
// requested coordinates, before the cell is cached or handed to waiters:
// a check is one hash pass over the cell, small beside the upstream round
// trip it follows, so there is nothing for a batching stage to amortise.
//
// Concurrency model: Query may be called from any number of client
// goroutines. Upstream fetches and their proof checks run on a fixed
// worker pool; everything else happens on the caller's goroutine. The
// gateway runs in real time (it faces external clients), unlike the
// simnet protocol stack it fronts.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pandas/internal/blob"
	"pandas/internal/kzg"
	"pandas/internal/obsv"
	"pandas/internal/wire"
)

// Errors returned by the gateway.
var (
	// ErrOverloaded is the admission-control rejection: the global queue
	// or the caller's per-client budget is full. Use errors.As with
	// *RetryAfterError to read the backoff hint.
	ErrOverloaded = errors.New("gateway: overloaded")
	// ErrClosed reports a query against a gateway that has shut down.
	ErrClosed = errors.New("gateway: closed")
	// ErrBadProof reports that the upstream response failed proof
	// verification; the cell is not cached and not returned.
	ErrBadProof = errors.New("gateway: cell proof verification failed")
	// ErrUnknownSlot reports a query for a slot the gateway has no
	// commitment for (verification enabled, StartSlot never called).
	ErrUnknownSlot = errors.New("gateway: unknown slot")
	// ErrWrongCell reports an upstream response whose cell ID does not
	// match the queried coordinates; the response is discarded before
	// verification or caching.
	ErrWrongCell = errors.New("gateway: upstream returned wrong cell")
)

// RetryAfterError is the concrete overload rejection: clients should
// back off for at least After before retrying. errors.Is(err,
// ErrOverloaded) matches it.
type RetryAfterError struct {
	After time.Duration
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("gateway: overloaded, retry after %v", e.After)
}

// Is makes errors.Is(err, ErrOverloaded) succeed.
func (e *RetryAfterError) Is(target error) bool { return target == ErrOverloaded }

// Upstream is the gateway's view of the full node (or node cluster)
// behind it. FetchCell is invoked once per coalesced cache miss, from a
// bounded worker pool; it must be safe for concurrent use.
type Upstream interface {
	FetchCell(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error)
}

// UpstreamFunc adapts a function to the Upstream interface.
type UpstreamFunc func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error)

// FetchCell implements Upstream.
func (f UpstreamFunc) FetchCell(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
	return f(ctx, slot, id)
}

// Config parameterizes a Gateway. The zero value of every field has a
// usable default (see New); Upstream is the only required field.
type Config struct {
	// Upstream fetches cells the cache cannot serve. Required.
	Upstream Upstream
	// CacheBytes is the hot-cell cache budget in BYTES (default 8 MiB).
	CacheBytes int64
	// Shards is the cache/coalescer shard count (default 16).
	Shards int
	// Workers is the upstream fetch worker-pool size (default 32).
	Workers int
	// QueueDepth bounds the pending upstream-fetch queue; admission
	// rejects with *RetryAfterError beyond it (default 4096).
	QueueDepth int
	// MaxPerClient bounds one client's in-flight queries — the fairness
	// knob: no client can occupy more than this many admission slots
	// regardless of how fast it submits (default 64).
	MaxPerClient int
	// RetryAfter is the backoff hint carried by overload rejections
	// (default 50 ms).
	RetryAfter time.Duration
	// VerifyProofs enables KZG verification of upstream responses
	// against per-slot commitments registered via StartSlot.
	VerifyProofs bool
	// RetainSlots is how many trailing slots stay cached; StartSlot(s)
	// evicts everything below s-RetainSlots+1 (default 2).
	RetainSlots int
	// UpstreamTimeout bounds one upstream fetch (default 4 s — the
	// sampling deadline).
	UpstreamTimeout time.Duration
	// Recorder receives gateway trace events (query-received,
	// cache-hit, coalesced-join). Nil disables tracing.
	Recorder obsv.Recorder
	// Metrics exports gateway counters/histograms. Nil disables.
	Metrics *obsv.Registry
	// Node is the gateway's id in trace events (default -1: standalone).
	Node int32
	// Clock supplies trace timestamps (default: wall time since New).
	Clock func() time.Duration
}

// QueryLatencyBounds are histogram bucket upper bounds (seconds) for
// the gateway query path: cache hits are microseconds, coalesced
// upstream fetches single-digit milliseconds, retries beyond.
var QueryLatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 4,
}

// Stats is a point-in-time copy of the gateway's own counters. Each
// completed query is exactly one of CacheHits, CoalescedJoins, or
// UpstreamFetches (+UpstreamErrors/BadProofs on the failure paths), so
// Queries - CacheHits - CoalescedJoins == upstream-initiating queries.
type Stats struct {
	Queries         int64 // queries admitted past the cache/admission layer plus cache hits
	CacheHits       int64
	CoalescedJoins  int64
	UpstreamFetches int64
	UpstreamErrors  int64
	Rejects         int64 // queries returning ErrOverloaded (queue-full, client budget, or coalesced onto a rejected flight)
	VerifiedCells   int64 // fetched cells whose proof checked out (each was then cached)
	BadProofs       int64 // fetched cells whose proof failed (none was cached)
}

// Gateway is the sampling frontend. Create with New, feed the slot
// lifecycle with StartSlot, serve with Query, stop with Close.
type Gateway struct {
	cfg   Config
	cache *Cache
	co    *coalescer
	tasks chan Key
	stopC chan struct{}
	wg    sync.WaitGroup

	start  time.Time
	closed atomic.Bool

	// commitments maps retained slots to their KZG commitments.
	cmu     sync.RWMutex
	commits map[uint64]kzg.Commitment

	// clients tracks per-client in-flight counts, sharded to keep the
	// admission path uncontended.
	clients [64]clientShard

	// own counters (always on) + optional registry mirrors.
	queries, hits, joins       atomic.Int64
	upstream, upErrs, rejects  atomic.Int64
	verified, badPrf           atomic.Int64
	mQueries, mHits, mJoins    *obsv.Counter
	mUpstream, mUpErr, mReject *obsv.Counter
	mVerified, mBad            *obsv.Counter
	mCacheBytes, mCacheCells   *obsv.Gauge
	mLatency                   *obsv.Histogram
}

type clientShard struct {
	mu sync.Mutex
	m  map[int]int
}

// New builds and starts a gateway (its worker pool).
func New(cfg Config) (*Gateway, error) {
	if cfg.Upstream == nil {
		return nil, errors.New("gateway: config needs an Upstream")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 8 << 20
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 32
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if cfg.MaxPerClient <= 0 {
		cfg.MaxPerClient = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	if cfg.RetainSlots <= 0 {
		cfg.RetainSlots = 2
	}
	if cfg.UpstreamTimeout <= 0 {
		cfg.UpstreamTimeout = 4 * time.Second
	}
	if cfg.Node == 0 {
		cfg.Node = -1
	}
	g := &Gateway{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheBytes, cfg.Shards),
		co:      newCoalescer(cfg.Shards),
		tasks:   make(chan Key, cfg.QueueDepth),
		stopC:   make(chan struct{}),
		start:   time.Now(),
		commits: make(map[uint64]kzg.Commitment),
	}
	for i := range g.clients {
		g.clients[i].m = make(map[int]int)
	}
	if g.cfg.Clock == nil {
		g.cfg.Clock = func() time.Duration { return time.Since(g.start) }
	}
	if reg := cfg.Metrics; reg != nil {
		g.mQueries = reg.Counter("gateway_queries_total")
		g.mHits = reg.Counter("gateway_cache_hits_total")
		g.mJoins = reg.Counter("gateway_coalesced_joins_total")
		g.mUpstream = reg.Counter("gateway_upstream_fetches_total")
		g.mUpErr = reg.Counter("gateway_upstream_errors_total")
		g.mReject = reg.Counter("gateway_overload_rejects_total")
		g.mVerified = reg.Counter("gateway_verified_cells_total")
		g.mBad = reg.Counter("gateway_bad_proof_total")
		g.mCacheBytes = reg.Gauge("gateway_cache_bytes")
		g.mCacheCells = reg.Gauge("gateway_cache_cells")
		g.mLatency = reg.Histogram("gateway_query_seconds", QueryLatencyBounds)
	}
	g.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go g.worker()
	}
	return g, nil
}

// emit records a gateway trace event when tracing is enabled.
func (g *Gateway) emit(e obsv.Event) {
	if g.cfg.Recorder == nil {
		return
	}
	e.At = g.cfg.Clock()
	e.Node = g.cfg.Node
	g.cfg.Recorder.Record(e)
}

// StartSlot feeds the slot lifecycle: it registers the slot's
// commitment for verification and evicts cache entries (and retained
// commitments) older than the retention window. Call it when the
// fronted node starts a slot.
func (g *Gateway) StartSlot(slot uint64, commit kzg.Commitment) {
	g.cmu.Lock()
	g.commits[slot] = commit
	keepFrom := uint64(0)
	if slot >= uint64(g.cfg.RetainSlots) {
		keepFrom = slot - uint64(g.cfg.RetainSlots) + 1
	}
	for s := range g.commits {
		if s < keepFrom {
			delete(g.commits, s)
		}
	}
	g.cmu.Unlock()
	g.cache.EvictSlots(keepFrom)
	if g.mCacheBytes != nil {
		g.mCacheBytes.Set(g.cache.Bytes())
		g.mCacheCells.Set(int64(g.cache.Len()))
	}
}

// commitment returns the registered commitment for a slot.
func (g *Gateway) commitment(slot uint64) (kzg.Commitment, bool) {
	g.cmu.RLock()
	c, ok := g.commits[slot]
	g.cmu.RUnlock()
	return c, ok
}

// Query serves one light-client sampling query: (slot, row, col) ->
// cell + proof. client identifies the caller for fairness accounting.
//
// The fast path is a sharded cache lookup on the caller's goroutine; a
// miss goes through admission (bounded, fair), joins or creates a
// coalesced upstream fetch, and waits for the verified result. On
// overload the error matches errors.Is(err, ErrOverloaded) and carries
// a *RetryAfterError backoff hint.
func (g *Gateway) Query(ctx context.Context, client int, slot uint64, id blob.CellID) (wire.Cell, error) {
	if g.closed.Load() {
		return wire.Cell{}, ErrClosed
	}
	g.queries.Add(1)
	if g.mQueries != nil {
		g.mQueries.Inc()
	}
	g.emit(obsv.Event{Kind: obsv.KindGatewayQuery, Peer: int32(client),
		Slot: slot, Count: 1})
	var t0 time.Time
	if g.mLatency != nil {
		t0 = time.Now()
	}
	key := Key{Slot: slot, ID: id}
	if c, ok := g.cache.Get(key); ok {
		g.hit(client, slot, t0)
		return c, nil
	}
	if g.cfg.VerifyProofs {
		if _, ok := g.commitment(slot); !ok {
			return wire.Cell{}, fmt.Errorf("%w: %d", ErrUnknownSlot, slot)
		}
	}
	// Admission: per-client budget first (fairness), then the global
	// queue when this query must initiate a fetch.
	if !g.acquire(client) {
		return wire.Cell{}, g.reject()
	}
	defer g.release(client)

	f, created, waiters := g.co.join(key)
	if created {
		// The miss above may have raced a flight for this key that has
		// since published to the cache and retired; fetching again would
		// be a second upstream fetch for one cell. A flight caches before
		// it retires, so this look-up after join cannot miss it.
		if c, ok := g.cache.Get(key); ok {
			g.co.complete(key, c, nil)
			g.hit(client, slot, t0)
			return c, nil
		}
		select {
		case g.tasks <- key:
		default:
			// Global queue full: resolve the flight we just created so
			// no waiter hangs, and reject this query.
			g.co.complete(key, wire.Cell{}, ErrOverloaded)
			<-f.done
			return wire.Cell{}, g.reject()
		}
	} else {
		g.joins.Add(1)
		if g.mJoins != nil {
			g.mJoins.Inc()
		}
		g.emit(obsv.Event{Kind: obsv.KindGatewayCoalesced, Peer: int32(client),
			Slot: slot, Aux: int64(waiters)})
	}
	select {
	case <-f.done:
		if f.err != nil {
			if errors.Is(f.err, ErrOverloaded) {
				// This waiter's query returns ErrOverloaded too, so it
				// counts as its own rejection — the initiator counted only
				// itself, not the flight's waiters.
				return wire.Cell{}, g.reject()
			}
			return wire.Cell{}, f.err
		}
		if g.mLatency != nil {
			g.mLatency.Observe(time.Since(t0).Seconds())
		}
		return f.cell, nil
	case <-ctx.Done():
		// Abandon the flight; it completes for the remaining waiters.
		return wire.Cell{}, ctx.Err()
	case <-g.stopC:
		// Shutdown racing this query: a flight created after Close's
		// sweep would otherwise never resolve.
		return wire.Cell{}, ErrClosed
	}
}

// hit accounts for one query answered from the cache.
func (g *Gateway) hit(client int, slot uint64, t0 time.Time) {
	g.hits.Add(1)
	if g.mHits != nil {
		g.mHits.Inc()
	}
	g.emit(obsv.Event{Kind: obsv.KindGatewayCacheHit, Peer: int32(client), Slot: slot})
	if g.mLatency != nil {
		g.mLatency.Observe(time.Since(t0).Seconds())
	}
}

// reject counts and builds an overload rejection. Every query that
// returns ErrOverloaded goes through here exactly once — initiators and
// coalesced waiters alike — so Stats.Rejects is the true rejection rate.
func (g *Gateway) reject() error {
	g.rejects.Add(1)
	if g.mReject != nil {
		g.mReject.Inc()
	}
	return &RetryAfterError{After: g.cfg.RetryAfter}
}

// acquire reserves one in-flight slot for the client.
func (g *Gateway) acquire(client int) bool {
	s := &g.clients[uint(client)%uint(len(g.clients))]
	s.mu.Lock()
	ok := s.m[client] < g.cfg.MaxPerClient
	if ok {
		s.m[client]++
	}
	s.mu.Unlock()
	return ok
}

// release returns the client's slot.
func (g *Gateway) release(client int) {
	s := &g.clients[uint(client)%uint(len(g.clients))]
	s.mu.Lock()
	if n := s.m[client]; n <= 1 {
		delete(s.m, client)
	} else {
		s.m[client] = n - 1
	}
	s.mu.Unlock()
}

// worker drains the fetch queue: one upstream fetch per coalesced key,
// its proof check, and the cache fill.
func (g *Gateway) worker() {
	defer g.wg.Done()
	for {
		select {
		case key := <-g.tasks:
			g.runFetch(key)
		case <-g.stopC:
			return
		}
	}
}

func (g *Gateway) runFetch(key Key) {
	g.upstream.Add(1)
	if g.mUpstream != nil {
		g.mUpstream.Inc()
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.UpstreamTimeout)
	cell, err := g.cfg.Upstream.FetchCell(ctx, key.Slot, key.ID)
	cancel()
	if err != nil {
		g.upErrs.Add(1)
		if g.mUpErr != nil {
			g.mUpErr.Inc()
		}
		g.co.complete(key, wire.Cell{}, err)
		return
	}
	// A response must carry the queried coordinates. Without this check a
	// malicious upstream could answer (r,c) with a different cell — and,
	// on the verified path, a proof valid for that OTHER cell — and have
	// it cached and served under the requested key. The proof check below
	// is also against key.ID, but reject the swap on both paths.
	if cell.ID != key.ID {
		g.upErrs.Add(1)
		if g.mUpErr != nil {
			g.mUpErr.Inc()
		}
		g.co.complete(key, wire.Cell{}, fmt.Errorf("%w: asked %v, got %v (slot %d)",
			ErrWrongCell, key.ID, cell.ID, key.Slot))
		return
	}
	if g.cfg.VerifyProofs {
		commit, ok := g.commitment(key.Slot)
		if !ok {
			g.co.complete(key, wire.Cell{}, fmt.Errorf("%w: %d", ErrUnknownSlot, key.Slot))
			return
		}
		// Against the REQUESTED coordinates, never upstream's claim: a
		// relabelled cell whose payload and proof belong elsewhere fails.
		if !kzg.Verify(commit, key.ID, cell.Data, cell.Proof) {
			g.badPrf.Add(1)
			if g.mBad != nil {
				g.mBad.Inc()
			}
			g.co.complete(key, wire.Cell{}, fmt.Errorf("%w: cell %v slot %d", ErrBadProof, key.ID, key.Slot))
			return
		}
		g.verified.Add(1)
		if g.mVerified != nil {
			g.mVerified.Inc()
		}
	}
	g.cache.Add(key, cell)
	g.co.complete(key, cell, nil)
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Queries:         g.queries.Load(),
		CacheHits:       g.hits.Load(),
		CoalescedJoins:  g.joins.Load(),
		UpstreamFetches: g.upstream.Load(),
		UpstreamErrors:  g.upErrs.Load(),
		Rejects:         g.rejects.Load(),
		VerifiedCells:   g.verified.Load(),
		BadProofs:       g.badPrf.Load(),
	}
}

// Cache exposes the hot-cell cache (tests, metrics).
func (g *Gateway) Cache() *Cache { return g.cache }

// Close stops the worker pool and fails every in-flight query with
// ErrClosed. Queries submitted after Close return ErrClosed.
func (g *Gateway) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	close(g.stopC)
	g.wg.Wait()
	g.co.failAll(ErrClosed)
}
