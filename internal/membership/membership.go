// Package membership implements dynamic network membership for PANDAS:
// evolving per-node views, a churn engine that owns which nodes are
// online and moves them through lifecycle transitions (join, graceful
// leave, crash, restart) on the simulation clock, peer-liveness scoring
// with exponential backoff.
//
// The paper evaluates PANDAS under static membership only: every node's
// view is frozen when the slot starts (Fig. 15b sweeps the *size* of
// views but never changes one mid-slot), and churn is explicitly deferred
// to future work (§9). This package supplies the missing dynamics over a
// fixed identity universe — the epoch table still enumerates every
// possible participant (as the DHT's ENR records do in practice), but
// which of them is online changes continuously:
//
//   - the churn Engine drives offline→online→offline transitions from
//     its session process (exponential session and downtime lengths) and
//     from its driver, which calls Join, Restart and Leave when a
//     scripted event fires (core's scenario list; this package never
//     reads one);
//   - each node's PeerView evolves during a slot, fed by gossip of
//     join/leave announcements; a restarting node reloads the bootstrap
//     view it started the run with, as a client reloads the peer table
//     it persists across restarts (its driver, core, does the reload);
//   - a per-node Scorer demotes peers that time out with exponential
//     backoff, so the adaptive fetcher (Algorithm 1) stops burning round
//     budget on departed peers; peers are re-armed when their backoff
//     expires and the fetcher's queryable-set sweep retries them.
//
// Crashes leave stale state behind on purpose: a crashed node is never
// announced, its entries linger in peers' views, and
// only liveness scoring removes it from fetch plans — the degradation
// mode that churn studies of DAS networks identify as dominant.
package membership

// Announcement is the join/leave notice a node floods over the gossip
// mesh when it enters or gracefully exits the network. Crashes produce
// no announcement — peers only learn through timeouts.
type Announcement struct {
	// Seq uniquely identifies the announcement for duplicate
	// suppression during mesh flooding.
	Seq uint64
	// Node is the subject's index.
	Node int
	// Join distinguishes a join (true) from a graceful leave (false).
	Join bool
}

// AnnouncementWireSize is the datagram size of one announcement:
// IP/UDP overhead (28) + seq (8) + node (4) + kind (1).
const AnnouncementWireSize = 28 + 8 + 4 + 1
