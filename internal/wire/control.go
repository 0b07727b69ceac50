package wire

// Swarm control-plane and discovery messages. These ride the same
// type-byte + slot framing as the protocol messages (Seed/Query/Response)
// so one Decode call demultiplexes both planes:
//
//   - Hello/WorkerConfig/Start/Report/Ack run between a swarm supervisor
//     and its pandas-node worker processes: workers register (and
//     heartbeat) with Hello, the supervisor answers with the per-node
//     WorkerConfig, drives slots with Start, and harvests per-slot
//     outcomes with Report — all over UDP with nonce-matched
//     acknowledgements supplying the reliability UDP does not.
//   - FindPeers/Peers is the discv5-style discovery plane between
//     workers: a node announces its own (index, address) binding and
//     pulls the responder's known peer table, so the full table spreads
//     from a small bootstrap set instead of static configuration.
//
// None of these messages carry cells, so their codecs ignore the
// cellBytes parameter; the swarm control channel conventionally encodes
// and decodes with cellBytes 0.

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Control/discovery message types (the protocol plane uses 1-3).
const (
	TypeHello MsgType = iota + 4
	TypeConfig
	TypeStart
	TypeReport
	TypeAck
	TypeFindPeers
	TypePeers
)

// MaxAddrLen bounds an encoded transport address (uint8 length prefix).
const MaxAddrLen = 255

// MaxPeersPerMessage caps entries per Peers datagram; larger tables are
// chunked by the sender.
const MaxPeersPerMessage = 512

// ErrAddrTooLong is returned when encoding an address over MaxAddrLen.
var ErrAddrTooLong = fmt.Errorf("wire: address exceeds %d bytes", MaxAddrLen)

// PeerEntry binds a swarm peer index to its UDP data address.
type PeerEntry struct {
	Index uint32
	Addr  string // host:port
}

func peerEntryWire(e PeerEntry) int { return 4 + 1 + len(e.Addr) }

// Hello registers a worker with the supervisor and doubles as the
// liveness heartbeat: workers resend it periodically, so one idempotent
// message covers registration, readiness reporting, and failure
// detection. The supervisor answers every Hello with a WorkerConfig.
type Hello struct {
	Slot  uint64 // worker's current slot (0 before the first Start)
	Nonce uint64
	Index uint32
	Ready bool   // discovery complete: full peer table learned
	Known uint32 // peer-table entries discovered so far
	// DataAddr is the worker's bound protocol (transport.UDP) address.
	DataAddr string
	// MetricsAddr is the worker's obsv metrics HTTP address ("" if the
	// worker serves no metrics endpoint).
	MetricsAddr string
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

// WireSize implements Message.
func (m *Hello) WireSize(int) int {
	return OverheadIPUDP + 1 + 8 + 8 + 4 + 1 + 4 + 1 + len(m.DataAddr) + 1 + len(m.MetricsAddr)
}

// WorkerConfig is the supervisor's reply to a Hello: the per-node
// configuration a worker needs to participate — slot geometry, role
// (index NumNodes is the builder), shared seed, and the bootstrap peer
// set discovery starts from.
type WorkerConfig struct {
	Nonce      uint64 // echoes the Hello nonce
	Index      uint32
	NumNodes   uint32 // sampler/custodian count; the builder is index NumNodes
	Seed       int64
	K          uint16 // base matrix size (extended is 2K x 2K)
	Custody    uint16 // rows and columns per node
	Samples    uint16
	CellBytes  uint16
	Redundancy uint16
	SeedWaitMs uint32
	DeadlineMs uint32
	Bootstrap  []PeerEntry
}

// Type implements Message.
func (*WorkerConfig) Type() MsgType { return TypeConfig }

// WireSize implements Message.
func (m *WorkerConfig) WireSize(int) int {
	n := OverheadIPUDP + 1 + 8 + 8 + 4 + 4 + 8 + 5*2 + 4 + 4 + 2
	for _, e := range m.Bootstrap {
		n += peerEntryWire(e)
	}
	return n
}

// Start drives one slot: the supervisor sends it to every worker (nodes
// first, builder last) and retries until the worker echoes the nonce in
// an Ack. Duplicate Starts for the same slot are idempotent.
type Start struct {
	Slot  uint64
	Nonce uint64
}

// Type implements Message.
func (*Start) Type() MsgType { return TypeStart }

// WireSize implements Message.
func (m *Start) WireSize(int) int { return OverheadIPUDP + 1 + 8 + 8 }

// Report carries one worker's per-slot outcome back to the supervisor
// (the experiment harvest). Durations are microseconds measured from the
// worker's own StartSlot, matching the simnet's NodeOutcome semantics;
// -1 marks a phase that never completed.
type Report struct {
	Slot         uint64
	Nonce        uint64
	Index        uint32
	Builder      bool
	HasSeed      bool
	Consolidated bool
	Sampled      bool

	FirstSeedUs    int64
	ConsolidatedUs int64
	SampledUs      int64

	SeedCells      uint32
	FetchMsgs      uint32
	FetchBytes     uint64
	CorruptRejects uint32
	// Restarts is how many times this worker's process has been
	// relaunched by the supervisor (from the environment it passes down).
	Restarts uint32
}

// Type implements Message.
func (*Report) Type() MsgType { return TypeReport }

// WireSize implements Message.
func (m *Report) WireSize(int) int {
	return OverheadIPUDP + 1 + 8 + 8 + 4 + 1 + 3*8 + 4 + 4 + 8 + 4 + 4
}

// Ack acknowledges a Start or Report by echoing its nonce.
type Ack struct {
	Nonce uint64
}

// Type implements Message.
func (*Ack) Type() MsgType { return TypeAck }

// WireSize implements Message.
func (m *Ack) WireSize(int) int { return OverheadIPUDP + 1 + 8 + 8 }

// FindPeers asks a peer for its known peer table and simultaneously
// announces the sender's own (index, address) binding — so a restarted
// worker re-announcing to the swarm rebinds its index to the new socket
// everywhere it asks.
type FindPeers struct {
	Nonce uint64
	Index uint32 // sender's swarm index
	Addr  string // sender's data address
}

// Type implements Message.
func (*FindPeers) Type() MsgType { return TypeFindPeers }

// WireSize implements Message.
func (m *FindPeers) WireSize(int) int {
	return OverheadIPUDP + 1 + 8 + 8 + 4 + 1 + len(m.Addr)
}

// Peers answers FindPeers with the responder's known entries (chunked at
// MaxPeersPerMessage).
type Peers struct {
	Nonce   uint64
	Entries []PeerEntry
}

// Type implements Message.
func (*Peers) Type() MsgType { return TypePeers }

// WireSize implements Message.
func (m *Peers) WireSize(int) int {
	n := OverheadIPUDP + 1 + 8 + 8 + 2
	for _, e := range m.Entries {
		n += peerEntryWire(e)
	}
	return n
}

func appendAddr(buf []byte, addr string) ([]byte, error) {
	if len(addr) > MaxAddrLen {
		return nil, fmt.Errorf("%w: %q", ErrAddrTooLong, addr)
	}
	buf = append(buf, byte(len(addr)))
	return append(buf, addr...), nil
}

func appendPeerEntry(buf []byte, e PeerEntry) ([]byte, error) {
	buf = binary.BigEndian.AppendUint32(buf, e.Index)
	return appendAddr(buf, e.Addr)
}

// encodeControl appends the serialized swarm control/discovery message
// to buf. The slot header slot field is 0 for messages without slot
// semantics.
func encodeControl(buf []byte, m Message) ([]byte, error) {
	var err error
	switch v := m.(type) {
	case *Hello:
		buf = slices.Grow(buf, v.WireSize(0)-OverheadIPUDP)
		buf = append(buf, byte(TypeHello))
		buf = binary.BigEndian.AppendUint64(buf, v.Slot)
		buf = binary.BigEndian.AppendUint64(buf, v.Nonce)
		buf = binary.BigEndian.AppendUint32(buf, v.Index)
		buf = append(buf, boolByte(v.Ready))
		buf = binary.BigEndian.AppendUint32(buf, v.Known)
		if buf, err = appendAddr(buf, v.DataAddr); err != nil {
			return nil, err
		}
		if buf, err = appendAddr(buf, v.MetricsAddr); err != nil {
			return nil, err
		}
	case *WorkerConfig:
		buf = slices.Grow(buf, v.WireSize(0)-OverheadIPUDP)
		buf = append(buf, byte(TypeConfig))
		buf = binary.BigEndian.AppendUint64(buf, 0)
		buf = binary.BigEndian.AppendUint64(buf, v.Nonce)
		buf = binary.BigEndian.AppendUint32(buf, v.Index)
		buf = binary.BigEndian.AppendUint32(buf, v.NumNodes)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Seed))
		buf = binary.BigEndian.AppendUint16(buf, v.K)
		buf = binary.BigEndian.AppendUint16(buf, v.Custody)
		buf = binary.BigEndian.AppendUint16(buf, v.Samples)
		buf = binary.BigEndian.AppendUint16(buf, v.CellBytes)
		buf = binary.BigEndian.AppendUint16(buf, v.Redundancy)
		buf = binary.BigEndian.AppendUint32(buf, v.SeedWaitMs)
		buf = binary.BigEndian.AppendUint32(buf, v.DeadlineMs)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(v.Bootstrap)))
		for _, e := range v.Bootstrap {
			if buf, err = appendPeerEntry(buf, e); err != nil {
				return nil, err
			}
		}
	case *Start:
		buf = slices.Grow(buf, v.WireSize(0)-OverheadIPUDP)
		buf = append(buf, byte(TypeStart))
		buf = binary.BigEndian.AppendUint64(buf, v.Slot)
		buf = binary.BigEndian.AppendUint64(buf, v.Nonce)
	case *Report:
		buf = slices.Grow(buf, v.WireSize(0)-OverheadIPUDP)
		buf = append(buf, byte(TypeReport))
		buf = binary.BigEndian.AppendUint64(buf, v.Slot)
		buf = binary.BigEndian.AppendUint64(buf, v.Nonce)
		buf = binary.BigEndian.AppendUint32(buf, v.Index)
		var flags byte
		if v.Builder {
			flags |= 1
		}
		if v.HasSeed {
			flags |= 2
		}
		if v.Consolidated {
			flags |= 4
		}
		if v.Sampled {
			flags |= 8
		}
		buf = append(buf, flags)
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.FirstSeedUs))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.ConsolidatedUs))
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.SampledUs))
		buf = binary.BigEndian.AppendUint32(buf, v.SeedCells)
		buf = binary.BigEndian.AppendUint32(buf, v.FetchMsgs)
		buf = binary.BigEndian.AppendUint64(buf, v.FetchBytes)
		buf = binary.BigEndian.AppendUint32(buf, v.CorruptRejects)
		buf = binary.BigEndian.AppendUint32(buf, v.Restarts)
	case *Ack:
		buf = slices.Grow(buf, v.WireSize(0)-OverheadIPUDP)
		buf = append(buf, byte(TypeAck))
		buf = binary.BigEndian.AppendUint64(buf, 0)
		buf = binary.BigEndian.AppendUint64(buf, v.Nonce)
	case *FindPeers:
		buf = slices.Grow(buf, v.WireSize(0)-OverheadIPUDP)
		buf = append(buf, byte(TypeFindPeers))
		buf = binary.BigEndian.AppendUint64(buf, 0)
		buf = binary.BigEndian.AppendUint64(buf, v.Nonce)
		buf = binary.BigEndian.AppendUint32(buf, v.Index)
		if buf, err = appendAddr(buf, v.Addr); err != nil {
			return nil, err
		}
	case *Peers:
		buf = slices.Grow(buf, v.WireSize(0)-OverheadIPUDP)
		buf = append(buf, byte(TypePeers))
		buf = binary.BigEndian.AppendUint64(buf, 0)
		buf = binary.BigEndian.AppendUint64(buf, v.Nonce)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(v.Entries)))
		for _, e := range v.Entries {
			if buf, err = appendPeerEntry(buf, e); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("%w: %T", ErrBadType, m)
	}
	return buf, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (r *reader) uint64() (uint64, bool) {
	if len(r.buf) < 8 {
		return 0, false
	}
	v := binary.BigEndian.Uint64(r.buf[:8])
	r.buf = r.buf[8:]
	return v, true
}

func (r *reader) uint16() (uint16, bool) {
	if len(r.buf) < 2 {
		return 0, false
	}
	v := binary.BigEndian.Uint16(r.buf[:2])
	r.buf = r.buf[2:]
	return v, true
}

func (r *reader) byte() (byte, bool) {
	if len(r.buf) < 1 {
		return 0, false
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v, true
}

func (r *reader) addr() (string, bool) {
	n, ok := r.byte()
	if !ok || len(r.buf) < int(n) {
		return "", false
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, true
}

func (r *reader) peerEntry() (PeerEntry, bool) {
	var e PeerEntry
	idx, ok := r.uint32()
	if !ok {
		return e, false
	}
	e.Index = idx
	e.Addr, ok = r.addr()
	return e, ok
}

// decodeControl parses the swarm control/discovery message bodies.
func decodeControl(typ MsgType, slot uint64, r reader) (Message, error) {
	switch typ {
	case TypeHello:
		m := &Hello{Slot: slot}
		var ok bool
		if m.Nonce, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		if m.Index, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		f, ok := r.byte()
		if !ok {
			return nil, ErrTruncated
		}
		m.Ready = f != 0
		if m.Known, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		if m.DataAddr, ok = r.addr(); !ok {
			return nil, ErrTruncated
		}
		if m.MetricsAddr, ok = r.addr(); !ok {
			return nil, ErrTruncated
		}
		return m, nil
	case TypeConfig:
		m := &WorkerConfig{}
		var ok bool
		if m.Nonce, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		if m.Index, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		if m.NumNodes, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		seed, ok := r.uint64()
		if !ok {
			return nil, ErrTruncated
		}
		m.Seed = int64(seed)
		for _, dst := range []*uint16{&m.K, &m.Custody, &m.Samples, &m.CellBytes, &m.Redundancy} {
			if *dst, ok = r.uint16(); !ok {
				return nil, ErrTruncated
			}
		}
		if m.SeedWaitMs, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		if m.DeadlineMs, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		n, ok := r.uint16()
		if !ok {
			return nil, ErrTruncated
		}
		m.Bootstrap = make([]PeerEntry, 0, min(int(n), MaxPeersPerMessage))
		for i := 0; i < int(n); i++ {
			e, ok := r.peerEntry()
			if !ok {
				return nil, ErrTruncated
			}
			m.Bootstrap = append(m.Bootstrap, e)
		}
		return m, nil
	case TypeStart:
		m := &Start{Slot: slot}
		var ok bool
		if m.Nonce, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		return m, nil
	case TypeReport:
		m := &Report{Slot: slot}
		var ok bool
		if m.Nonce, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		if m.Index, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		f, ok := r.byte()
		if !ok {
			return nil, ErrTruncated
		}
		m.Builder = f&1 != 0
		m.HasSeed = f&2 != 0
		m.Consolidated = f&4 != 0
		m.Sampled = f&8 != 0
		for _, dst := range []*int64{&m.FirstSeedUs, &m.ConsolidatedUs, &m.SampledUs} {
			v, ok := r.uint64()
			if !ok {
				return nil, ErrTruncated
			}
			*dst = int64(v)
		}
		if m.SeedCells, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		if m.FetchMsgs, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		if m.FetchBytes, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		if m.CorruptRejects, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		if m.Restarts, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		return m, nil
	case TypeAck:
		m := &Ack{}
		var ok bool
		if m.Nonce, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		return m, nil
	case TypeFindPeers:
		m := &FindPeers{}
		var ok bool
		if m.Nonce, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		if m.Index, ok = r.uint32(); !ok {
			return nil, ErrTruncated
		}
		if m.Addr, ok = r.addr(); !ok {
			return nil, ErrTruncated
		}
		return m, nil
	case TypePeers:
		m := &Peers{}
		var ok bool
		if m.Nonce, ok = r.uint64(); !ok {
			return nil, ErrTruncated
		}
		n, ok := r.uint16()
		if !ok {
			return nil, ErrTruncated
		}
		m.Entries = make([]PeerEntry, 0, min(int(n), MaxPeersPerMessage))
		for i := 0; i < int(n); i++ {
			e, ok := r.peerEntry()
			if !ok {
				return nil, ErrTruncated
			}
			m.Entries = append(m.Entries, e)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
}
