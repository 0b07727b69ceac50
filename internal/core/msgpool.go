package core

import (
	"pandas/internal/blob"
	"pandas/internal/wire"
)

// msgPool is a simulated cluster's free list of fetch messages. The
// cluster releases each Query and Response into it once the receiver's
// HandleMessage has returned, and its nodes build their next messages in
// what it holds, so a steady-state slot allocates no message. The
// simulator runs every node on one goroutine, so it takes no lock. A
// message lost in the network never reaches a handler and is left to the
// GC.
//
// There is one stack per capacity, 1 to wire.MaxCellsPerMessage cells, so
// a message is taken at exactly the size it is sent at. Rounding up to a
// power of two would cost more than it saves: at the paper's geometry a
// response carries 5.8 cells on average, and rounded capacities add a
// third to what the messages in flight hold at the slot's peak.
//
// A nil *msgPool allocates every message and takes nothing back: nodes on
// real sockets and in unit tests have none.
type msgPool struct {
	queries   [wire.MaxCellsPerMessage][]*wire.Query
	responses [wire.MaxCellsPerMessage][]*wire.Response
}

// stackOf is the stack that serves n cells: the one of capacity n, or of
// a full datagram for more.
func stackOf(n int) int { return min(max(n, 1), wire.MaxCellsPerMessage) - 1 }

// pop takes the top of a stack, or nil from an empty one.
func pop[M any](s *[]*M) *M {
	if len(*s) == 0 {
		return nil
	}
	m := (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return m
}

// query returns an empty query for slot with room for n cell IDs.
func (p *msgPool) query(slot uint64, n int) *wire.Query {
	if p != nil {
		if m := pop(&p.queries[stackOf(n)]); m != nil {
			m.Slot, m.Cells = slot, m.Cells[:0]
			return m
		}
	}
	return &wire.Query{Slot: slot, Cells: make([]blob.CellID, 0, n)}
}

// response returns an empty response for slot with room for n cells.
func (p *msgPool) response(slot uint64, n int) *wire.Response {
	if p != nil {
		if m := pop(&p.responses[stackOf(n)]); m != nil {
			m.Slot, m.Cells = slot, m.Cells[:0]
			return m
		}
	}
	return &wire.Response{Slot: slot, Cells: make([]wire.Cell, 0, n)}
}

// release takes back a delivered query or response, whoever built it;
// any other payload is ignored. A released message names no slot and no
// cell of any matrix, and a response's cells drop their payloads: a
// pooled message keeps no store's payload reachable, and a receiver that
// read one after its handler returned would read nothing it could use.
func (p *msgPool) release(payload any) {
	if p == nil {
		return
	}
	switch m := payload.(type) {
	case *wire.Query:
		if c := cap(m.Cells); c > 0 {
			m.Slot = poisonSlot
			for i := range m.Cells {
				m.Cells[i] = poisonID
			}
			k := stackOf(c)
			p.queries[k] = append(p.queries[k], m)
		}
	case *wire.Response:
		if c := cap(m.Cells); c > 0 {
			m.Slot = poisonSlot
			for i := range m.Cells {
				m.Cells[i] = wire.Cell{ID: poisonID}
			}
			k := stackOf(c)
			p.responses[k] = append(p.responses[k], m)
		}
	}
}

// poisonSlot and poisonID are what a released message holds: no slot and
// no cell of any matrix.
const poisonSlot = ^uint64(0)

var poisonID = blob.CellID{Row: 0xffff, Col: 0xffff}
