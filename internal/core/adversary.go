package core

// Cluster-side adversary wiring: the builder's withholding attack and
// view-poisoner gossip. Everything here reads randomness from dedicated
// streams (never the cluster's main rng), so honest deployments are
// bit-identical whether or not the subsystem is compiled in the
// configuration.

import (
	"pandas/internal/adversary"
	"pandas/internal/blob"
	"pandas/internal/gossip"
	"pandas/internal/membership"
)

// setupAdversary installs the configured attacks. Called after setupChurn
// so poisoners can ride the announcement mesh.
func (c *Cluster) setupAdversary(cc ClusterConfig) {
	adv := cc.Adversary

	if adv.Withhold {
		n := cc.Core.Blob.N()
		c.builder.SetWithholding(func(id blob.CellID) bool { return blob.Withheld(n, id) })
	}

	// View poisoners require the churn announcement mesh: without it
	// there is no membership gossip to poison, so the behavior degrades
	// to honest (documented in adversary.Config).
	if c.annRouters != nil {
		for i, b := range c.behaviors {
			if b == adversary.Poisoner {
				c.startPoisoner(i)
			}
		}
	}
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
		if c.engine.Online(node) {
			if targets := c.engine.Departed(); len(targets) > 0 {
				c.publishForgedAnnouncement(node, targets[agent.Pick(len(targets))])
			}
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
	for _, peer := range c.annRouters[poisoner].Publish(c.annOverlay, m.id) {
		c.net.Send(poisoner, peer, membership.AnnouncementWireSize, m)
	}
}
