package membership

import (
	"time"

	"pandas/internal/dht"
	"pandas/internal/obsv"
)

// Refresher keeps one node's LiveView fresh by periodically crawling the
// Kademlia DHT — the paper's §4.1 view-building mechanism, wired to the
// previously orphaned dht.Crawl. Every interval the node issues a crawl of
// DefaultRefreshFanout targets and folds every discovered entry into its
// view.
//
// Crawls only ADD peers: routing tables retain entries for departed
// nodes (stale ENRs), so a crawl may well re-discover a peer that
// gracefully left after the last announcement was applied. That is
// deliberate — pruning the stale state is the liveness scorer's job, not
// the discovery layer's.
type Refresher struct {
	peer     *dht.Peer
	view     *LiveView
	clock    Clock
	interval time.Duration
	seed     int64
	crawls   int
	// active gates crawling (an offline node cannot crawl); nil means
	// always active.
	active func() bool
	// Tracing (nil rec disables it).
	rec  obsv.Recorder
	node int32
	slot uint64
}

// NewRefresher creates a refresher for one node. An interval of zero
// selects DefaultRefreshInterval.
func NewRefresher(peer *dht.Peer, view *LiveView, clock Clock, interval time.Duration, seed int64, active func() bool) *Refresher {
	if interval == 0 {
		interval = DefaultRefreshInterval
	}
	return &Refresher{
		peer:     peer,
		view:     view,
		clock:    clock,
		interval: interval,
		seed:     seed,
		active:   active,
	}
}

// SetRecorder installs event tracing for completed crawls: node is the
// owning node's index, stamped into every event. Pass nil to disable.
func (r *Refresher) SetRecorder(rec obsv.Recorder, node int) {
	r.rec = rec
	r.node = int32(node)
}

// SetSlot updates the slot stamped into traced events (the refresh loop
// outlives slot boundaries, so the owner bumps this each slot).
func (r *Refresher) SetSlot(slot uint64) { r.slot = slot }

// Crawls returns the number of crawls issued so far.
func (r *Refresher) Crawls() int { return r.crawls }

// Start schedules the periodic refresh loop after an initial delay
// (staggered per node by the caller so the network's crawls spread out
// over the interval). A negative configured interval disables the loop;
// RefreshNow still works.
func (r *Refresher) Start(initialDelay time.Duration) {
	if r.interval < 0 {
		return
	}
	r.clock.After(initialDelay, r.tick)
}

func (r *Refresher) tick() {
	if r.active == nil || r.active() {
		r.RefreshNow()
	}
	r.clock.After(r.interval, r.tick)
}

// RefreshNow issues one crawl immediately and merges the result into the
// view (used on restart: a returning node rebuilds its stale view).
func (r *Refresher) RefreshNow() {
	r.crawls++
	// Vary targets per crawl so successive refreshes probe different
	// regions of the ID space.
	crawlSeed := r.seed + int64(r.crawls)*1_000_003
	crawlNum := r.crawls
	r.peer.Crawl(DefaultRefreshFanout, crawlSeed, func(found []dht.Entry) {
		for _, e := range found {
			r.view.Add(e.Addr)
		}
		if r.rec != nil {
			r.rec.Record(obsv.Event{At: r.clock.Now(), Slot: r.slot,
				Kind: obsv.KindViewRefresh, Node: r.node, Peer: -1,
				Count: int32(len(found)), Aux: int64(crawlNum)})
		}
	})
}
