package core

// The scenario list: every timed event of a run, network faults and
// lifecycle transitions alike, with one interpreter. Each event fires
// once, at its offset from the start of the run, on the cluster's clock.

import (
	"fmt"
	"math/rand"
	"time"

	"pandas/internal/obsv"
)

// ScenarioKind is what a scenario event does.
type ScenarioKind uint8

// Scenario event kinds. Partition and LossBurst are windows; their codes
// are the Aux of the fault-start/stop trace events. The other four are
// the churn engine's lifecycle transitions, traced as churn events.
const (
	// Partition isolates Count random nodes from the rest for Duration:
	// messages crossing the cut are dropped, reliable sends included.
	Partition ScenarioKind = iota + 1
	// LossBurst raises the network loss rate to LossRate for Duration.
	LossBurst
	// Join brings Count nodes online for the first time; the nodes the
	// run's joins bring in are held out of the network from its start.
	Join
	// Restart brings Count departed nodes back, with empty stores.
	Restart
	// Leave takes Count online nodes offline, announced.
	Leave
	// Crash takes Count online nodes offline, unannounced.
	Crash
)

// ScenarioEvent is one timed event of a run's scenario.
type ScenarioEvent struct {
	Kind ScenarioKind
	// At is when the event fires, measured from the start of the run.
	At time.Duration
	// Duration is how long a Partition or LossBurst window lasts.
	Duration time.Duration
	// Count is the number of nodes a Partition isolates or a lifecycle
	// event moves.
	Count int
	// LossRate is the drop probability during a LossBurst.
	LossRate float64
}

// faultSalt seeds the stream partitions draw their nodes from.
const faultSalt = 0x46414c54 // "FALT"

// validateScenario checks every event of a scenario over n nodes.
func validateScenario(events []ScenarioEvent, n int) error {
	for i, ev := range events {
		bad := ""
		switch {
		case ev.Kind < Partition || ev.Kind > Crash:
			bad = "has an unknown kind"
		case ev.At < 0:
			bad = fmt.Sprintf("fires at %v, before the run", ev.At)
		case ev.Kind <= LossBurst && ev.Duration <= 0:
			bad = fmt.Sprintf("is a window of %v", ev.Duration)
		case ev.Kind == LossBurst && (ev.LossRate <= 0 || ev.LossRate >= 1):
			bad = fmt.Sprintf("has loss rate %v out of (0,1)", ev.LossRate)
		case ev.Kind != LossBurst && (ev.Count <= 0 || ev.Count > n):
			bad = fmt.Sprintf("moves %d of %d nodes", ev.Count, n)
		case ev.Kind == Partition && ev.Count == n:
			bad = fmt.Sprintf("isolates all %d nodes", n)
		}
		if bad != "" {
			return fmt.Errorf("%w: scenario event %d (kind %d) %s", ErrBadConfig, i, ev.Kind, bad)
		}
	}
	return nil
}

// lifecycleEvents reports whether a scenario moves nodes in or out of
// the network, which needs dynamic membership, and how many nodes its
// joins bring in.
func lifecycleEvents(events []ScenarioEvent) (dynamic bool, joins int) {
	for _, ev := range events {
		if ev.Kind >= Join {
			dynamic = true
		}
		if ev.Kind == Join {
			joins += ev.Count
		}
	}
	return dynamic, joins
}

// setupScenario schedules every scenario event. Called after setupChurn,
// whose engine the lifecycle events drive. The link filter is installed
// once, and only for a scenario with a partition: it reads the
// partitioned set, empty outside partition windows.
func (c *Cluster) setupScenario(cc ClusterConfig) {
	for i, ev := range cc.Scenario {
		if ev.Kind == Partition && c.partitioned == nil {
			c.partRng = rand.New(rand.NewSource(cc.Seed ^ faultSalt))
			// Indexed by simulator address; the builder, past cc.N, is
			// never partitioned.
			c.partitioned = make([]int, cc.N)
			inPart := func(i int) bool {
				return i >= 0 && i < len(c.partitioned) && c.partitioned[i] > 0
			}
			c.net.SetLinkFilter(func(from, to int) bool {
				if c.partCount == 0 {
					return false
				}
				return inPart(from) != inPart(to)
			})
		}
		if ev.Kind == LossBurst && c.burstOpen == nil {
			c.lossBase = c.net.LossRate()
			c.burstOpen = make([]bool, len(cc.Scenario))
		}
		c.net.After(ev.At, func() { c.fire(i, ev) })
	}
}

// fire runs scenario event i. Windows may overlap: a node stays cut while
// any open partition isolates it, and the loss rate is the highest among
// open bursts, the baseline once none is open.
func (c *Cluster) fire(i int, ev ScenarioEvent) {
	switch ev.Kind {
	case Partition:
		isolated := c.partRng.Perm(c.cfg.N)[:ev.Count]
		for _, v := range isolated {
			if c.partitioned[v] == 0 {
				c.partCount++
			}
			c.partitioned[v]++
		}
		c.emitFault(obsv.KindFaultStart, ev)
		c.net.After(ev.Duration, func() {
			for _, v := range isolated {
				c.partitioned[v]--
				if c.partitioned[v] == 0 {
					c.partCount--
				}
			}
			c.emitFault(obsv.KindFaultStop, ev)
		})
	case LossBurst:
		c.burstOpen[i] = true
		c.setBurstLoss()
		c.emitFault(obsv.KindFaultStart, ev)
		c.net.After(ev.Duration, func() {
			c.burstOpen[i] = false
			c.setBurstLoss()
			c.emitFault(obsv.KindFaultStop, ev)
		})
	case Join:
		c.engine.Join(ev.Count)
	case Restart:
		c.engine.Restart(ev.Count)
	case Leave, Crash:
		c.engine.Leave(ev.Count, ev.Kind == Crash)
	}
}

// setBurstLoss sets the network loss rate to the highest rate among the
// open loss bursts, or to the baseline when none is open.
func (c *Cluster) setBurstLoss() {
	rate := -1.0
	for i, ev := range c.cfg.Scenario {
		if c.burstOpen[i] {
			rate = max(rate, ev.LossRate)
		}
	}
	if rate < 0 {
		rate = c.lossBase
	}
	c.net.SetLossRate(rate)
}

// emitFault traces a window's transition (network-global: Node -1), with
// the isolated node count for a partition.
func (c *Cluster) emitFault(kind obsv.Kind, ev ScenarioEvent) {
	if c.rec == nil {
		return
	}
	count := 0
	if ev.Kind == Partition {
		count = ev.Count
	}
	c.rec.Record(obsv.Event{At: c.net.Now(), Slot: c.curSlot, Kind: kind,
		Node: -1, Peer: -1, Count: int32(count), Aux: int64(ev.Kind)})
}
