package adversary

import (
	"math/rand"
	"time"

	"pandas/internal/wire"
)

// Transport is the substrate interface byzantine policies interpose on.
// It is structurally identical to core.Transport, so any core transport
// satisfies it without this package importing core (which imports us).
type Transport interface {
	Send(to int, size int, payload any)
	SendReliable(to int, size int, payload any)
	After(d time.Duration, fn func())
	Now() time.Duration
}

// Agent is one node's adversarial identity: its sortitioned behavior plus
// the node-local randomness and counters the behavior needs. Agents for
// honest nodes exist too (WrapTransport is then the identity), so a
// cluster can index agents by node uniformly.
type Agent struct {
	behavior Behavior
	rng      *rand.Rand

	// Counters (single-threaded simulator; no atomics needed).

	// DroppedResponses counts responses a Silent agent swallowed.
	DroppedResponses int
	// DelayedResponses counts responses a Laggard agent deferred.
	DelayedResponses int
	// CorruptedCells counts cells a Garbage agent tampered with.
	CorruptedCells int
}

// NewAgent builds the agent for one node. The rng is seeded from the run
// seed, the node index, and a package salt, so each agent's draws are
// deterministic and independent of every honest randomness stream.
func NewAgent(node int, b Behavior, seed int64) *Agent {
	return &Agent{
		behavior: b,
		rng:      rand.New(rand.NewSource(seed ^ int64(node)*0x9e3779b9 ^ 0x42595a41)), // "BYZA"
	}
}

// WrapTransport applies the agent's policy to the node's outbound
// traffic. Honest agents return tr unchanged; Silent, Laggard, and
// Garbage agents intercept outgoing protocol responses. Only responses
// are touched: byzantine nodes still query and sample for themselves —
// they are free-riders, not absentees — which is the harder case for
// honest fetchers because the peers look alive.
func (a *Agent) WrapTransport(tr Transport) Transport {
	if a == nil || a.behavior == Honest {
		return tr
	}
	return &byzTransport{inner: tr, agent: a}
}

// byzTransport applies a response-boundary policy to one node's sends.
type byzTransport struct {
	inner Transport
	agent *Agent
}

// Send implements Transport. Non-response traffic (queries, gossip,
// membership) passes through untouched.
func (t *byzTransport) Send(to int, size int, payload any) {
	resp, ok := payload.(*wire.Response)
	if !ok {
		t.inner.Send(to, size, payload)
		return
	}
	switch t.agent.behavior {
	case Silent:
		t.agent.DroppedResponses++
	case Laggard:
		t.agent.DelayedResponses++
		d := t.agent.lagDelay()
		t.inner.After(d, func() { t.inner.Send(to, size, resp) })
	case Garbage:
		t.inner.Send(to, size, t.agent.corrupt(resp))
	default:
		t.inner.Send(to, size, payload)
	}
}

// SendReliable implements Transport. Nodes only send responses via Send;
// the reliable path (builder seeding) passes through.
func (t *byzTransport) SendReliable(to int, size int, payload any) {
	t.inner.SendReliable(to, size, payload)
}

// After implements Transport.
func (t *byzTransport) After(d time.Duration, fn func()) { t.inner.After(d, fn) }

// Now implements Transport.
func (t *byzTransport) Now() time.Duration { return t.inner.Now() }

// lagDelay draws the laggard's uniform response delay.
func (a *Agent) lagDelay() time.Duration {
	return DefaultLagMin + time.Duration(a.rng.Int63n(int64(DefaultLagMax-DefaultLagMin)))
}

// corrupt returns a tampered copy of a response. The original message and
// its cell payloads are never mutated: the simulator passes messages by
// reference, so in-place corruption would poison the sender's own store
// and any shared references. Cells with real payloads get their first
// byte flipped — the KZG proof then fails verification at the receiver.
// Metadata-mode cells (nil Data) carry no bytes to flip, so the corruption
// is modeled by the Tainted marker, which the store treats exactly as a
// failed proof check would be in a real deployment.
func (a *Agent) corrupt(resp *wire.Response) *wire.Response {
	out := &wire.Response{Slot: resp.Slot, Cells: make([]wire.Cell, len(resp.Cells))}
	for i, c := range resp.Cells {
		cc := c
		if c.Data != nil {
			cc.Data = append([]byte(nil), c.Data...)
			cc.Data[0] ^= 0xFF
		}
		cc.Tainted = true
		out.Cells[i] = cc
		a.CorruptedCells++
	}
	return out
}
