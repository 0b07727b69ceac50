package core

// Cluster-side adversary wiring: the builder's withholding attack, the
// per-slot network fault schedule, and view-poisoner gossip. Everything
// here reads randomness from dedicated streams (never the cluster's main
// rng), so honest deployments are bit-identical whether or not the
// subsystem is compiled in the configuration.

import (
	"math/rand"
	"sort"

	"pandas/internal/adversary"
	"pandas/internal/blob"
	"pandas/internal/gossip"
	"pandas/internal/membership"
	"pandas/internal/obsv"
)

// Salts for the adversary subsystem's dedicated randomness streams.
const faultSalt = 0x46414c54 // "FALT"

// setupAdversary installs the configured attacks. Called after setupChurn
// so poisoners can ride the announcement mesh.
func (c *Cluster) setupAdversary(cc ClusterConfig) {
	adv := cc.Adversary

	if adv.Withhold {
		n := cc.Core.Blob.N()
		c.builder.SetWithholding(func(id blob.CellID) bool { return blob.Withheld(n, id) })
	}

	// Scheduled network faults. The link filter is installed once here —
	// it reads the partitioned set, empty outside fault windows — so the
	// per-message cost exists only in runs that configure a partition.
	if len(adv.Faults) > 0 {
		c.advRng = rand.New(rand.NewSource(cc.Seed ^ faultSalt))
		c.lossBase = c.net.LossRate()
		c.openBursts = make([]int, len(adv.Faults))
		for _, f := range adv.Faults {
			if f.Kind == adversary.FaultPartition {
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
				break
			}
		}
	}

	// View poisoners require the churn announcement mesh: without it
	// there is no membership gossip to poison, so the behavior degrades
	// to honest (documented in adversary.Config).
	if c.annRouters != nil {
		if reg := cc.Core.Metrics; reg != nil {
			c.mPoison = reg.Counter("adversary_poison_announcements_total")
		}
		c.departed = make(map[int]bool)
		for i, b := range c.behaviors {
			if b == adversary.Poisoner {
				c.startPoisoner(i)
			}
		}
	}
}

// armFaults schedules this slot's fault windows on the simulation clock.
// Called at the top of every RunSlot; a run without faults schedules
// nothing. Windows may overlap, within a slot or across slots: a node
// stays cut while any open partition isolates it, and the loss rate is
// the highest among open bursts, the baseline once none is open.
func (c *Cluster) armFaults() {
	adv := c.cfg.Adversary
	if adv == nil || len(adv.Faults) == 0 {
		return
	}
	for fi, f := range adv.Faults {
		switch f.Kind {
		case adversary.FaultPartition:
			c.net.After(f.At, func() {
				count := int(float64(c.cfg.N) * f.Fraction)
				isolated := append([]int(nil), c.advRng.Perm(c.cfg.N)[:count]...)
				for _, i := range isolated {
					if c.partitioned[i] == 0 {
						c.partCount++
					}
					c.partitioned[i]++
				}
				c.emitFault(obsv.KindFaultStart, f.Kind, count)
				c.net.After(f.Duration, func() {
					for _, i := range isolated {
						c.partitioned[i]--
						if c.partitioned[i] == 0 {
							c.partCount--
						}
					}
					c.emitFault(obsv.KindFaultStop, f.Kind, count)
				})
			})
		case adversary.FaultLossBurst:
			c.net.After(f.At, func() {
				c.openBursts[fi]++
				c.setBurstLoss()
				c.emitFault(obsv.KindFaultStart, f.Kind, 0)
				c.net.After(f.Duration, func() {
					c.openBursts[fi]--
					c.setBurstLoss()
					c.emitFault(obsv.KindFaultStop, f.Kind, 0)
				})
			})
		}
	}
}

// setBurstLoss sets the network loss rate to the highest rate among the
// open loss bursts, or to the baseline when none is open.
func (c *Cluster) setBurstLoss() {
	rate := -1.0
	for fi, f := range c.cfg.Adversary.Faults {
		if c.openBursts[fi] > 0 {
			rate = max(rate, f.LossRate)
		}
	}
	if rate < 0 {
		rate = c.lossBase
	}
	c.net.SetLossRate(rate)
}

// emitFault traces a fault transition (network-global: Node -1).
func (c *Cluster) emitFault(kind obsv.Kind, fk adversary.FaultKind, count int) {
	if c.rec == nil {
		return
	}
	c.rec.Record(obsv.Event{At: c.net.Now(), Slot: c.curSlot, Kind: kind,
		Node: -1, Peer: -1, Count: int32(count), Aux: int64(fk)})
}

// startPoisoner arms a node's forged-announcement loop: every poison
// period, an online poisoner re-advertises one departed peer as a fresh
// join, keeping dead entries alive in honest views. The loop reschedules
// itself forever (like the view refreshers); target choice comes from
// the agent's deterministic randomness.
func (c *Cluster) startPoisoner(node int) {
	agent := c.agents[node]
	period := adversary.DefaultPoisonInterval
	var tick func()
	tick = func() {
		if c.dir != nil && c.dir.Online(node) && len(c.departed) > 0 {
			targets := make([]int, 0, len(c.departed))
			for t := range c.departed {
				targets = append(targets, t)
			}
			sort.Ints(targets)
			c.publishForgedAnnouncement(node, targets[agent.Pick(len(targets))])
		}
		c.net.After(period, tick)
	}
	c.net.After(period, tick)
}

// publishForgedAnnouncement floods a join announcement for a peer the
// poisoner knows to be gone. Honest receivers cannot distinguish it from
// a genuine (re)join — announcements carry no proof of the subject's
// cooperation — so the departed peer re-enters their views and wastes
// fetch attempts until liveness backoff demotes it again.
func (c *Cluster) publishForgedAnnouncement(poisoner, target int) {
	c.annSeq++
	m := annMsg{
		id:  gossip.MsgID(c.annSeq),
		ann: membership.Announcement{Seq: c.annSeq, Node: target, Join: true},
	}
	c.agents[poisoner].ForgedAnnouncements++
	if c.mPoison != nil {
		c.mPoison.Inc()
	}
	for _, peer := range c.annRouters[poisoner].Publish(c.annOverlay, m.id) {
		c.net.Send(poisoner, peer, membership.AnnouncementWireSize, m)
	}
}
