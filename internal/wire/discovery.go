package wire

// Swarm discovery messages. These ride the same type-byte + slot framing
// as the protocol messages (Seed/Query/Response) on the same data socket,
// so one Decode call demultiplexes both: FindPeers/Peers is the
// discv5-style discovery plane between workers — a node announces its own
// (index, address) binding and pulls the responder's known peer table, so
// the full table spreads from a small bootstrap set instead of static
// configuration.
//
// Neither message carries cells, so their codecs ignore the cellBytes
// parameter.

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Discovery message types. The protocol plane uses 1-3. 4-8 stay unused:
// they were the supervisor's control datagrams, which are frames on a TCP
// stream now (internal/swarm/control.go), and a data socket rejects them.
const (
	TypeFindPeers MsgType = 9
	TypePeers     MsgType = 10
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

// encodeDiscovery appends the serialized discovery message to buf. The
// header's slot field is 0: discovery has no slot semantics.
func encodeDiscovery(buf []byte, m Message) ([]byte, error) {
	var err error
	switch v := m.(type) {
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

// decodeDiscovery parses the discovery message bodies.
func decodeDiscovery(typ MsgType, r reader) (Message, error) {
	switch typ {
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
