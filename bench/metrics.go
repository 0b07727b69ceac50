package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pandas/internal/obsv"
)

// deadlineMs is the attestation window every operation is held to.
const deadlineMs = 4000

// neverMs stands in for an operation that did not complete within its
// slot: a full 12 s slot, so it ranks past every completed one.
const neverMs = 12000

// nodeObs is what one node observed during one slot, with durations
// measured from the slot start (negative: never happened).
type nodeObs struct {
	seed, consolidation time.Duration
	rounds              []obsv.RoundStat
}

// slotResult is one slot's outcome, in the shape every workload shares.
type slotResult struct {
	// opMs holds the time to completion of every operation attempted,
	// in ms (neverMs when it did not complete): one per eligible node on
	// the network workloads, one per slot on builder_slot.
	opMs []float64
	// sampleMs holds the times the sampling percentiles are taken over.
	// Nil means opMs, as on every workload whose operations are nodes.
	sampleMs []float64
	// msgs and msgBytes are the protocol messages nodes sent and
	// received, spread over msgNodes live nodes.
	msgs, msgBytes float64
	msgNodes       int
	builderBytes   int64
	// nodes is the per-node protocol detail (nil on builder_slot).
	nodes []nodeObs
	// Simulator counters (zero elsewhere).
	simEvents, simSent, simDropped uint64
	// obsvEvents counts the protocol trace events recorded, and the udp
	// fields the datagrams the decorated endpoints sent and handled
	// (traced slots only).
	obsvEvents                    uint64
	udpSent, udpBytes, udpHandled uint64
}

// snapshot is the process's cumulative cost at one instant.
type snapshot struct {
	at       time.Time
	cpu      time.Duration // user+sys, getrusage
	alloc    uint64        // MemStats.TotalAlloc
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	maxRSSKB int64
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return snapshot{
		at:       time.Now(),
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		maxRSSKB: ru.Maxrss,
	}
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// usage is the process cost of the interval between two snapshots.
type usage struct {
	wall, cpu  time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	maxRSSKB   int64 // at the interval's end
}

func (s snapshot) since(before snapshot) usage {
	return usage{
		wall:       s.at.Sub(before.at),
		cpu:        s.cpu - before.cpu,
		allocBytes: s.alloc - before.alloc,
		mallocs:    s.mallocs - before.mallocs,
		gcCycles:   s.gcCycles - before.gcCycles,
		gcPause:    s.gcPause - before.gcPause,
		maxRSSKB:   s.maxRSSKB,
	}
}

// aggregate accumulates the measured slots of a run.
type aggregate struct {
	slots             int
	sampleMs          []float64
	attempted, failed int
	incorrect         bool

	// wall sums over the slots; slotWall and slotCPU keep every slot's
	// own cost for fastestQuarter.
	wall                   time.Duration
	slotWall, slotCPU      []float64
	allocBytes             uint64
	msgs, msgBytes         float64
	msgNodeSlots           int
	builderBytes           int64
	maxRSSKB               int64
	simEvents, simSent     uint64
	simDropped, obsvEvents uint64
	udpSent, udpBytes      uint64
	udpHandled             uint64
	mallocs                uint64
	gcCycles               uint32
	gcPause                time.Duration
	tracedWall, plainWall  time.Duration
	tracedSlots            int
	nodeSlots              int
	rounds, cellsRequested int
	replies, lateReplies   int
	cellsReceived, dups    int
	reconstructed          int
	seedMs, consMs         []float64
}

func (a *aggregate) add(sr slotResult, u usage, traced bool) {
	a.slots++
	a.wall += u.wall
	a.allocBytes += u.allocBytes
	a.mallocs += u.mallocs
	a.gcCycles += u.gcCycles
	a.gcPause += u.gcPause
	a.maxRSSKB = u.maxRSSKB
	if traced {
		a.tracedWall += u.wall
		a.tracedSlots++
	} else {
		a.plainWall += u.wall
	}
	a.slotWall = append(a.slotWall, u.wall.Seconds())
	a.slotCPU = append(a.slotCPU, u.cpu.Seconds())
	a.attempted += len(sr.opMs)
	for _, t := range sr.opMs {
		if t > deadlineMs {
			a.failed++
		}
	}
	if sr.sampleMs == nil {
		sr.sampleMs = sr.opMs
	}
	a.sampleMs = append(a.sampleMs, sr.sampleMs...)
	a.msgs += sr.msgs
	a.msgBytes += sr.msgBytes
	a.msgNodeSlots += sr.msgNodes
	a.builderBytes += sr.builderBytes
	a.simEvents += sr.simEvents
	a.simSent += sr.simSent
	a.simDropped += sr.simDropped
	a.obsvEvents += sr.obsvEvents
	a.udpSent += sr.udpSent
	a.udpBytes += sr.udpBytes
	a.udpHandled += sr.udpHandled
	for _, n := range sr.nodes {
		a.nodeSlots++
		a.rounds += len(n.rounds)
		for _, r := range n.rounds {
			a.cellsRequested += r.CellsRequested
			a.replies += r.RepliesInRound + r.RepliesAfterRound
			a.lateReplies += r.RepliesAfterRound
			a.cellsReceived += r.CellsInRound + r.CellsAfterRound
			a.dups += r.Duplicates
			a.reconstructed += r.Reconstructed
		}
		if n.seed >= 0 {
			a.seedMs = append(a.seedMs, ms(n.seed))
		}
		if n.consolidation >= 0 {
			a.consMs = append(a.consMs, ms(n.consolidation))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fastestQuarter is the mean of the fastest quarter (at least two) of
// the per-slot costs. The slots of a run do the same work, and what the
// reference box adds to them is one-sided: its memory latency swings by
// 2x for seconds to minutes at a time and identical simulator slots
// take 1.9 to 2.9 s, so the mean over all slots moves by 20 % between
// runs of unchanged code while the fast slots stay within a few percent.
func fastestQuarter(perSlot []float64) float64 {
	s := append([]float64(nil), perSlot...)
	sort.Float64s(s)
	s = s[:min(len(s), max(2, len(s)/4))]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// endToEnd fills the metrics a user of the system sees.
func (a *aggregate) endToEnd(m metrics, setupS float64) {
	n := float64(a.slots)
	tail, _ := tailPercentile(len(a.sampleMs))
	m.put("setup_s", setupS)
	m.put("slot_wall_s", fastestQuarter(a.slotWall))
	m.put("slot_cpu_s", fastestQuarter(a.slotCPU))
	m.put("sample_p50_ms", percentile(a.sampleMs, 50))
	m.put("sample_p99_ms", percentile(a.sampleMs, tail))
	m.put("deadline_share", ratio(float64(a.attempted-a.failed), float64(a.attempted)))
	m.put("fetch_msgs_per_node", ratio(a.msgs, float64(a.msgNodeSlots)))
	m.put("fetch_kb_per_node", ratio(a.msgBytes, float64(a.msgNodeSlots))/1000)
	m.put("builder_mb_out", float64(a.builderBytes)/n/1e6)
	m.put("alloc_mb_per_slot", float64(a.allocBytes)/n/1e6)
	m.put("peak_rss_mb", float64(a.maxRSSKB)/1024)
}

// notes are the human-readable lines printed above the metrics.
func (a *aggregate) notes(workload string) []string {
	tail, beyond := tailPercentile(len(a.sampleMs))
	out := []string{
		fmt.Sprintf("operations: attempted=%d failed=%d; sample_p50_ms and sample_p99_ms over %d samples, tail percentile p%g with %d samples beyond it",
			a.attempted, a.failed, len(a.sampleMs), tail, beyond),
		fmt.Sprintf("per-slot wall over all %d slots: mean %.4f s, median %.4f s, fastest %.4f s (slot_wall_s is the mean of the fastest quarter)",
			a.slots, a.wall.Seconds()/float64(a.slots), median(a.slotWall), percentile(a.slotWall, 0)),
	}
	switch workload {
	case "udp_local":
		out = append(out, "traffic crossed the host's loopback interface (127.0.0.1), not a real link")
	case "builder_slot":
		out = append(out, "no nodes here: an operation is a slot; sample_* are when each node's seed batch has left the builder at 10 Gbps, fetch_* the seed datagrams and KB sent per node")
	}
	if a.msgNodeSlots > 0 && workload != "builder_slot" {
		out = append(out, fmt.Sprintf("fetch_msgs_per_node beside the paper's 1,613 msgs/node (full geometry, 73 samples, 8+8 custody): %.0f",
			ratio(a.msgs, float64(a.msgNodeSlots))))
	}
	return out
}

// perLayer fills the counters that come from slot outcomes and process
// statistics; profile shares, spans and probes add theirs separately.
func (a *aggregate) perLayer(m metrics, untraced int) {
	n := float64(a.slots)
	ns := float64(a.nodeSlots)
	m.put("simnet.events_per_slot", float64(a.simEvents)/n)
	m.put("simnet.ns_per_event", ratio(float64(a.wall.Nanoseconds()), float64(a.simEvents)))
	m.put("simnet.dropped_share", ratio(float64(a.simDropped), float64(a.simSent)))
	m.put("runtime.mallocs_per_slot", float64(a.mallocs)/n)
	m.put("runtime.gc_cycles_per_slot", float64(a.gcCycles)/n)
	m.put("runtime.gc_pause_ms_per_slot", ms(a.gcPause)/n)
	m.put("core.rounds_per_node", ratio(float64(a.rounds), ns))
	m.put("core.cells_requested_per_node", ratio(float64(a.cellsRequested), ns))
	m.put("core.duplicate_cell_share", ratio(float64(a.dups), float64(a.cellsReceived)))
	m.put("core.late_reply_share", ratio(float64(a.lateReplies), float64(a.replies)))
	m.put("core.reconstructed_cells_per_node", ratio(float64(a.reconstructed), ns))
	seedTail, _ := tailPercentile(len(a.seedMs))
	consTail, _ := tailPercentile(len(a.consMs))
	m.put("core.seed_p99_ms", percentile(a.seedMs, seedTail))
	m.put("core.consolidation_p50_ms", percentile(a.consMs, 50))
	m.put("core.consolidation_p99_ms", percentile(a.consMs, consTail))
	ts := float64(a.tracedSlots)
	m.put("obsv.events_per_slot", ratio(float64(a.obsvEvents), ts))
	m.put("transport.udp_datagrams_per_slot", ratio(float64(a.udpSent), ts))
	m.put("transport.udp_bytes_per_slot", ratio(float64(a.udpBytes), ts))
	if a.udpSent > 0 {
		m.put("transport.udp_lost_share", 1-float64(a.udpHandled)/float64(a.udpSent))
	}
	plain := ratio(a.plainWall.Seconds(), float64(untraced))
	traced := ratio(a.tracedWall.Seconds(), float64(a.tracedSlots))
	m.put("bench.trace_overhead_share", ratio(traced, plain)-1)
}

// percentile returns the nearest-rank p-th percentile of values (0 for
// an empty set). It sorts a copy.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten of n samples beyond it, and reports how many
// are; with fewer than 20 samples it falls back to the median.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range []float64{99, 95, 90, 75} {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p, n - rank
		}
	}
	return 50, n - int(math.Ceil(float64(n)/2))
}

func median(values []float64) float64 { return percentile(values, 50) }
