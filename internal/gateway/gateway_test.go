package gateway

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pandas/internal/blob"
	"pandas/internal/kzg"
	"pandas/internal/wire"
)

func testCell(id blob.CellID) wire.Cell {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(int(id.Row)*31 + int(id.Col)*7 + i)
	}
	return wire.Cell{ID: id, Data: data}
}

// blockingUpstream serves testCell payloads but parks every fetch until
// release is closed, so tests control exactly when flights resolve.
type blockingUpstream struct {
	fetches atomic.Int64
	started chan struct{} // receives one token per fetch that has begun
	release chan struct{}
}

func newBlockingUpstream() *blockingUpstream {
	return &blockingUpstream{started: make(chan struct{}, 1024), release: make(chan struct{})}
}

func (u *blockingUpstream) FetchCell(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
	u.fetches.Add(1)
	u.started <- struct{}{}
	select {
	case <-u.release:
		return testCell(id), nil
	case <-ctx.Done():
		return wire.Cell{}, ctx.Err()
	}
}

// TestCoalescerSingleFetch is the core singleflight guarantee: N
// concurrent queries for the same missing cell trigger exactly ONE
// upstream fetch, and every waiter receives the same payload.
func TestCoalescerSingleFetch(t *testing.T) {
	up := newBlockingUpstream()
	g, err := New(Config{Upstream: up, Workers: 4, MaxPerClient: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const n = 128
	id := blob.CellID{Row: 3, Col: 9}
	var wg sync.WaitGroup
	results := make([]wire.Cell, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			results[i], errs[i] = g.Query(context.Background(), i, 1, id)
		}()
	}
	// Wait until every query is counted (past the cache check), then let
	// the single upstream fetch finish.
	for g.Stats().Queries < n {
		time.Sleep(100 * time.Microsecond)
	}
	close(up.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if string(results[i].Data) != string(testCell(id).Data) {
			t.Fatalf("query %d: wrong payload", i)
		}
	}
	if got := up.fetches.Load(); got != 1 {
		t.Fatalf("upstream fetches = %d, want 1 (coalescing failed)", got)
	}
	st := g.Stats()
	if st.CacheHits+st.CoalescedJoins != n-1 {
		t.Fatalf("hits(%d)+joins(%d) = %d, want %d", st.CacheHits, st.CoalescedJoins,
			st.CacheHits+st.CoalescedJoins, n-1)
	}
	// A repeat query now comes from the cache, still one upstream fetch.
	if _, err := g.Query(context.Background(), 0, 1, id); err != nil {
		t.Fatal(err)
	}
	if got := up.fetches.Load(); got != 1 {
		t.Fatalf("repeat query refetched upstream: fetches = %d", got)
	}
}

// TestCoalescerCancellation: a waiter whose context expires mid-flight
// gets its context error, while the fetch continues and the remaining
// waiter still receives the cell.
func TestCoalescerCancellation(t *testing.T) {
	up := newBlockingUpstream()
	g, err := New(Config{Upstream: up, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	id := blob.CellID{Row: 1, Col: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := g.Query(ctx, 1, 1, id)
		cancelled <- err
	}()
	<-up.started // the flight's fetch is running
	patient := make(chan error, 1)
	var patientCell wire.Cell
	go func() {
		var err error
		patientCell, err = g.Query(context.Background(), 2, 1, id)
		patient <- err
	}()
	for g.Stats().Queries < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	close(up.release)
	if err := <-patient; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	if string(patientCell.Data) != string(testCell(id).Data) {
		t.Fatal("surviving waiter got wrong payload")
	}
	if got := up.fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1", got)
	}
}

// TestOverloadQueueFull: with a single blocked worker and a depth-1
// queue, excess distinct-cell queries are rejected with an error that
// matches ErrOverloaded and carries a retry-after hint — never queued
// without bound.
func TestOverloadQueueFull(t *testing.T) {
	up := newBlockingUpstream()
	g, err := New(Config{
		Upstream: up, Workers: 1, QueueDepth: 1,
		RetryAfter: 7 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const n = 6 // distinct cells; capacity is 2 (1 in worker + 1 queued)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		id := blob.CellID{Row: uint16(i), Col: 0}
		go func() {
			_, err := g.Query(context.Background(), 1, 1, id)
			errc <- err
		}()
	}
	var rejected int
	var firstReject error
	deadline := time.After(2 * time.Second)
	for rejected < n-2 {
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("query succeeded while upstream is blocked")
			}
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("rejection = %v, want errors.Is(ErrOverloaded)", err)
			}
			if firstReject == nil {
				firstReject = err
			}
			rejected++
		case <-deadline:
			t.Fatalf("only %d of %d rejections arrived", rejected, n-2)
		}
	}
	var ra *RetryAfterError
	if !errors.As(firstReject, &ra) || ra.After != 7*time.Millisecond {
		t.Fatalf("rejection = %v, want *RetryAfterError{7ms}", firstReject)
	}
	// Every query that returned ErrOverloaded is counted — coalesced
	// waiters on a rejected flight included, not just initiators.
	if got := g.Stats().Rejects; got != int64(rejected) {
		t.Fatalf("Stats.Rejects = %d, want %d (one per rejected query)", got, rejected)
	}
	close(up.release)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("admitted query failed after release: %v", err)
		}
	}
}

// TestPerClientFairness: one client cannot hold more than MaxPerClient
// admission slots; other clients are unaffected.
func TestPerClientFairness(t *testing.T) {
	up := newBlockingUpstream()
	g, err := New(Config{Upstream: up, Workers: 1, QueueDepth: 64, MaxPerClient: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	first := make(chan error, 1)
	go func() {
		_, err := g.Query(context.Background(), 7, 1, blob.CellID{Row: 0, Col: 0})
		first <- err
	}()
	<-up.started
	// Same client, second in-flight query: over budget.
	_, err = g.Query(context.Background(), 7, 1, blob.CellID{Row: 0, Col: 1})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("same-client overflow: err = %v, want ErrOverloaded", err)
	}
	// A different client still gets through.
	other := make(chan error, 1)
	go func() {
		_, err := g.Query(context.Background(), 8, 1, blob.CellID{Row: 0, Col: 1})
		other <- err
	}()
	for g.Stats().UpstreamFetches < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	close(up.release)
	if err := <-first; err != nil {
		t.Fatalf("client 7 first query: %v", err)
	}
	if err := <-other; err != nil {
		t.Fatalf("client 8 query: %v", err)
	}
	// Budget released: client 7 can query again.
	if _, err := g.Query(context.Background(), 7, 1, blob.CellID{Row: 0, Col: 0}); err != nil {
		t.Fatalf("client 7 after release: %v", err)
	}
}

// TestVerifyRejectsBadProof: with verification on, an upstream response
// whose proof does not match the slot commitment is reported as
// ErrBadProof and never cached.
func TestVerifyRejectsBadProof(t *testing.T) {
	var commit kzg.Commitment
	copy(commit[:], "gateway-test-blob")
	id := blob.CellID{Row: 2, Col: 5}
	good := testCell(id)
	good.Proof = kzg.Prove(commit, id, good.Data)

	var fetches atomic.Int64
	corrupt := true
	up := UpstreamFunc(func(ctx context.Context, slot uint64, cid blob.CellID) (wire.Cell, error) {
		fetches.Add(1)
		c := good
		if corrupt {
			c.Proof[0] ^= 0xff
		}
		return c, nil
	})
	g, err := New(Config{Upstream: up, VerifyProofs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.StartSlot(1, commit)

	if _, err := g.Query(context.Background(), 1, 1, id); !errors.Is(err, ErrBadProof) {
		t.Fatalf("corrupt proof: err = %v, want ErrBadProof", err)
	}
	st := g.Stats()
	if st.BadProofs != 1 || st.VerifiedCells != 0 {
		t.Fatalf("stats after bad proof: %+v", st)
	}
	if g.Cache().Len() != 0 {
		t.Fatalf("cache holds %d cells after a bad proof", g.Cache().Len())
	}
	// The bad cell must not have been cached: the next query re-fetches,
	// and a clean response verifies and is served.
	corrupt = false
	c, err := g.Query(context.Background(), 1, 1, id)
	if err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	if string(c.Data) != string(good.Data) {
		t.Fatal("clean retry returned wrong payload")
	}
	if fetches.Load() != 2 {
		t.Fatalf("fetches = %d, want 2 (bad cell must not be cached)", fetches.Load())
	}
	if g.Stats().VerifiedCells != 1 {
		t.Fatalf("verified = %d, want 1", g.Stats().VerifiedCells)
	}
}

// TestWrongCellRejected: an upstream that answers a query with a
// DIFFERENT cell — one whose proof is valid for its own coordinates —
// must be rejected on both the unverified and verified paths, and
// nothing may be cached under the queried key.
func TestWrongCellRejected(t *testing.T) {
	asked := blob.CellID{Row: 1, Col: 2}
	other := blob.CellID{Row: 3, Col: 4}
	var commit kzg.Commitment
	copy(commit[:], "wrong-cell-blob")
	swap := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		c := testCell(other)
		c.Proof = kzg.Prove(commit, other, c.Data)
		return c, nil
	})
	for _, verify := range []bool{false, true} {
		g, err := New(Config{Upstream: swap, VerifyProofs: verify})
		if err != nil {
			t.Fatal(err)
		}
		g.StartSlot(1, commit)
		if _, qerr := g.Query(context.Background(), 1, 1, asked); !errors.Is(qerr, ErrWrongCell) {
			g.Close()
			t.Fatalf("verify=%v: err = %v, want ErrWrongCell", verify, qerr)
		}
		if _, ok := g.Cache().Get(Key{Slot: 1, ID: asked}); ok {
			g.Close()
			t.Fatalf("verify=%v: swapped cell was cached under the queried key", verify)
		}
		g.Close()
	}
}

// TestVerifyUsesRequestedCoordinates: an upstream that RELABELS a cell
// (cell.ID matches the query, but payload+proof belong to different
// coordinates) passes the ID check yet must fail verification — the
// verifier proves against the requested key, not upstream's claim.
func TestVerifyUsesRequestedCoordinates(t *testing.T) {
	asked := blob.CellID{Row: 1, Col: 2}
	other := blob.CellID{Row: 3, Col: 4}
	var commit kzg.Commitment
	copy(commit[:], "relabel-blob")
	up := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		c := testCell(other)
		c.Proof = kzg.Prove(commit, other, c.Data)
		c.ID = asked
		return c, nil
	})
	g, err := New(Config{Upstream: up, VerifyProofs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.StartSlot(1, commit)
	if _, qerr := g.Query(context.Background(), 1, 1, asked); !errors.Is(qerr, ErrBadProof) {
		t.Fatalf("relabeled cell: err = %v, want ErrBadProof", qerr)
	}
	if _, ok := g.Cache().Get(Key{Slot: 1, ID: asked}); ok {
		t.Fatal("relabeled cell was cached under the queried key")
	}
}

// TestUnknownSlot: verification enabled but no commitment registered
// for the queried slot.
func TestUnknownSlot(t *testing.T) {
	up := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		return testCell(id), nil
	})
	g, err := New(Config{Upstream: up, VerifyProofs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Query(context.Background(), 1, 99, blob.CellID{}); !errors.Is(err, ErrUnknownSlot) {
		t.Fatalf("err = %v, want ErrUnknownSlot", err)
	}
}

// TestSlotLifecycleEviction: StartSlot advances the retention window;
// cells from expired slots are evicted and must be re-fetched.
func TestSlotLifecycleEviction(t *testing.T) {
	var fetches atomic.Int64
	up := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		fetches.Add(1)
		return testCell(id), nil
	})
	g, err := New(Config{Upstream: up, RetainSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	id := blob.CellID{Row: 4, Col: 4}
	g.StartSlot(1, kzg.Commitment{})
	if _, err := g.Query(context.Background(), 1, 1, id); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Query(context.Background(), 1, 1, id); err != nil {
		t.Fatal(err)
	}
	if fetches.Load() != 1 {
		t.Fatalf("fetches = %d, want 1 before eviction", fetches.Load())
	}
	g.StartSlot(2, kzg.Commitment{}) // slot 1 still retained
	if g.Cache().Len() != 1 {
		t.Fatalf("cache len = %d after StartSlot(2), want 1", g.Cache().Len())
	}
	g.StartSlot(3, kzg.Commitment{}) // retention window [2,3]: slot 1 evicted
	if g.Cache().Len() != 0 {
		t.Fatalf("cache len = %d after StartSlot(3), want 0", g.Cache().Len())
	}
	if _, err := g.Query(context.Background(), 1, 1, id); err != nil {
		t.Fatal(err)
	}
	if fetches.Load() != 2 {
		t.Fatalf("fetches = %d, want 2 after slot-boundary eviction", fetches.Load())
	}
}

// TestCloseFailsWaiters: Close resolves in-flight queries and later
// queries return ErrClosed; Close never hangs on a parked upstream.
func TestCloseFailsWaiters(t *testing.T) {
	up := newBlockingUpstream()
	g, err := New(Config{Upstream: up, Workers: 2, UpstreamTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waiter := make(chan error, 1)
	go func() {
		_, err := g.Query(context.Background(), 1, 1, blob.CellID{Row: 0, Col: 0})
		waiter <- err
	}()
	<-up.started
	done := make(chan struct{})
	go func() { g.Close(); close(done) }()
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("in-flight query succeeded across Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight query hung across Close")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
	if _, err := g.Query(context.Background(), 1, 1, blob.CellID{Row: 0, Col: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close query: err = %v, want ErrClosed", err)
	}
}

// TestQueryStress drives many clients over a small hot set with
// verification on — primarily a race-detector workload exercising
// cache, coalescer, verifier, and admission together.
func TestQueryStress(t *testing.T) {
	var commit kzg.Commitment
	copy(commit[:], "stress-blob")
	up := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		c := testCell(id)
		c.Proof = kzg.Prove(commit, id, c.Data)
		return c, nil
	})
	g, err := New(Config{Upstream: up, VerifyProofs: true, Workers: 8, MaxPerClient: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const clients, queries, slots = 32, 40, 3
	for s := uint64(1); s <= slots; s++ {
		g.StartSlot(s, commit)
		var wg sync.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			c := c
			go func() {
				defer wg.Done()
				for q := 0; q < queries; q++ {
					id := blob.CellID{Row: uint16((c + q) % 8), Col: uint16(q % 8)}
					for {
						_, err := g.Query(context.Background(), c, s, id)
						if err == nil {
							break
						}
						var ra *RetryAfterError
						if errors.As(err, &ra) {
							time.Sleep(ra.After)
							continue
						}
						t.Errorf("client %d slot %d: %v", c, s, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	st := g.Stats()
	if st.BadProofs != 0 {
		t.Fatalf("bad proofs under stress: %+v", st)
	}
	if st.CacheHits == 0 || st.UpstreamFetches == 0 {
		t.Fatalf("implausible stress stats: %+v", st)
	}
}

// TestFetchCountDeterministic: with an upstream that answers at once, a
// query can miss the cache, lose the CPU while the flight for its key
// caches the cell and retires, and then create a second flight. The
// gateway must still fetch every distinct cell exactly once.
func TestFetchCountDeterministic(t *testing.T) {
	up := UpstreamFunc(func(ctx context.Context, slot uint64, id blob.CellID) (wire.Cell, error) {
		return testCell(id), nil
	})
	const goroutines, keys, rounds = 64, 16, 50
	g, err := New(Config{Upstream: up, Workers: 8, MaxPerClient: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for c := 0; c < goroutines; c++ {
			c := c
			go func() {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					id := blob.CellID{Row: uint16(r), Col: uint16((c + k) % keys)}
					if _, err := g.Query(context.Background(), c, 1, id); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if got := g.Stats().UpstreamFetches; got != keys*rounds {
		t.Fatalf("upstream fetches = %d, want one per distinct cell = %d", got, keys*rounds)
	}
}
