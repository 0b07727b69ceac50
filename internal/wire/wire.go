// Package wire defines the PANDAS message formats, their binary codecs,
// and their wire-size accounting.
//
// PANDAS uses one-way, connectionless UDP messages with no session
// establishment. Three protocol messages exist (Section 6):
//
//   - Seed: builder -> node, carrying the node's initial cells for a slot,
//     the proposer's signature binding the builder identity, the blob
//     commitment, and optionally a consolidation-boost map;
//   - Query: node -> node, requesting a set of cells by ID;
//   - Response: node -> node, carrying requested cells.
//
// The same structs travel through both substrates: the in-memory
// simulator passes them by reference and charges Msg.WireSize() bytes,
// while the real UDP transport serializes them with Encode/Decode. In
// simulator "metadata mode" cell payloads are nil, but WireSize still
// charges the full payload so bandwidth accounting matches the paper.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/kzg"
)

// Overheads and limits.
const (
	// OverheadIPUDP is the per-datagram IPv4 + UDP header cost counted
	// against bandwidth.
	OverheadIPUDP = 28
	// SigSize is the ed25519 signature size (proposer binding).
	SigSize = 64
	// MaxCellsPerMessage caps cells per datagram so encoded messages stay
	// under the 64 KB UDP limit with default 560 B cells.
	MaxCellsPerMessage = 96
)

// MsgType tags wire messages.
type MsgType uint8

// Message types. 4-10 are retired and a data socket rejects them: 4-8 were
// the supervisor's control datagrams, which are frames on a TCP stream now
// (internal/swarm/control.go), and 9-10 the swarm's peer-discovery
// crawl, whose table the supervisor hands out instead.
const (
	TypeSeed MsgType = iota + 1
	TypeQuery
	TypeResponse
)

// Errors returned by the codec.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrBadType   = errors.New("wire: unknown message type")
	ErrTooLarge  = errors.New("wire: message exceeds datagram limit")
)

// Cell is one extended-matrix cell in flight: identifier, payload, and
// KZG proof. In the simulator's metadata mode Data is nil and Proof zero,
// but sizes are still charged in full.
type Cell struct {
	ID    blob.CellID
	Data  []byte
	Proof kzg.Proof
	// Tainted marks a cell corrupted by a simulated byzantine sender. It
	// is a simulator-only annotation — never encoded or decoded — that
	// stands in for the proof-verification failure a real deployment
	// would observe: in metadata mode there are no payload bytes to
	// corrupt, so the store rejects Tainted cells exactly where real mode
	// rejects cells whose KZG proof fails.
	Tainted bool
	// Borrowed marks a cell whose Data aliases memory the holder of the
	// cell does not own — the datagram it was decoded from, lent only
	// until the receive handler returns. Decode sets it; like Tainted it is
	// never encoded, and the simulator's by-reference messages never carry
	// it. Whoever keeps a Borrowed cell past the handler must copy Data
	// first (core.Store does, on insert).
	Borrowed bool
}

// Message is implemented by all PANDAS wire messages.
type Message interface {
	Type() MsgType
	// WireSize returns the number of bytes the message occupies on the
	// wire (including IP/UDP overhead) given the cell payload size.
	WireSize(cellBytes int) int
}

// cellWire returns the per-cell wire cost: 4-byte ID + payload + proof.
func cellWire(cellBytes int) int { return 4 + cellBytes + kzg.ProofSize }

// BoostEntry is one record of the consolidation-boost map CB: it tells
// the receiving node that the holder (identified by its rank within the
// deterministic holder list of the line) was seeded cells
// [Start, Start+Count) of the line. Holder ranks are resolvable locally
// because the assignment function is deterministic.
type BoostEntry struct {
	Line      blob.Line
	HolderRef uint16 // rank within the builder's sorted holder list
	Start     uint16 // first position along the line
	Count     uint16
}

// boostEntryWire is the encoded size of one boost entry:
// kind(1) + line index(2) + holder(2) + start(2) + count(2).
const boostEntryWire = 9

// Seed is the builder's seeding message for one slot (one of possibly
// several datagrams per node).
type Seed struct {
	Slot        uint64
	Builder     ids.NodeID
	ProposerSig [SigSize]byte
	Commitment  kzg.Commitment
	// ChunkIndex / ChunkCount let the receiver detect when its seed
	// batch is complete: consolidation and sampling start then (or on
	// the seed-wait timer if the tail chunk is lost).
	ChunkIndex uint16
	ChunkCount uint16
	Cells      []Cell
	Boost      []BoostEntry
}

// Type implements Message.
func (*Seed) Type() MsgType { return TypeSeed }

// WireSize implements Message.
func (m *Seed) WireSize(cellBytes int) int {
	return OverheadIPUDP + 1 + 8 + ids.IDSize + SigSize + kzg.CommitmentSize + 4 +
		4 + len(m.Cells)*cellWire(cellBytes) +
		4 + len(m.Boost)*boostEntryWire
}

// Query requests cells from a peer for a slot.
type Query struct {
	Slot  uint64
	Cells []blob.CellID
}

// Type implements Message.
func (*Query) Type() MsgType { return TypeQuery }

// WireSize implements Message.
func (m *Query) WireSize(cellBytes int) int {
	return OverheadIPUDP + 1 + 8 + 4 + len(m.Cells)*4
}

// Response carries cells answering a Query (possibly delayed: queried
// nodes buffer requests for cells they are assigned but have not yet
// received).
type Response struct {
	Slot  uint64
	Cells []Cell
}

// Type implements Message.
func (*Response) Type() MsgType { return TypeResponse }

// WireSize implements Message.
func (m *Response) WireSize(cellBytes int) int {
	return OverheadIPUDP + 1 + 8 + 4 + len(m.Cells)*cellWire(cellBytes)
}

// Encode serializes a message for UDP transport. cellBytes fixes the cell
// payload size (cells with nil Data are encoded as zero payloads).
func Encode(m Message, cellBytes int) ([]byte, error) {
	return EncodeAppend(nil, m, cellBytes)
}

// EncodeAppend is Encode into the caller's buffer: the datagram is
// appended to buf (normally buf[:0] of a reused buffer) and the extended
// slice returned, so a sender that keeps one buffer allocates nothing
// per message.
func EncodeAppend(buf []byte, m Message, cellBytes int) ([]byte, error) {
	base := len(buf)
	switch v := m.(type) {
	case *Seed:
		buf = slices.Grow(buf, v.WireSize(cellBytes)-OverheadIPUDP)
		buf = append(buf, byte(TypeSeed))
		buf = binary.BigEndian.AppendUint64(buf, v.Slot)
		buf = append(buf, v.Builder[:]...)
		buf = append(buf, v.ProposerSig[:]...)
		buf = append(buf, v.Commitment[:]...)
		buf = binary.BigEndian.AppendUint16(buf, v.ChunkIndex)
		buf = binary.BigEndian.AppendUint16(buf, v.ChunkCount)
		buf = appendCells(buf, v.Cells, cellBytes)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Boost)))
		for _, b := range v.Boost {
			buf = append(buf, byte(b.Line.Kind))
			buf = binary.BigEndian.AppendUint16(buf, b.Line.Index)
			buf = binary.BigEndian.AppendUint16(buf, b.HolderRef)
			buf = binary.BigEndian.AppendUint16(buf, b.Start)
			buf = binary.BigEndian.AppendUint16(buf, b.Count)
		}
	case *Query:
		buf = slices.Grow(buf, v.WireSize(cellBytes)-OverheadIPUDP)
		buf = append(buf, byte(TypeQuery))
		buf = binary.BigEndian.AppendUint64(buf, v.Slot)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Cells)))
		for _, id := range v.Cells {
			buf = binary.BigEndian.AppendUint16(buf, id.Row)
			buf = binary.BigEndian.AppendUint16(buf, id.Col)
		}
	case *Response:
		buf = slices.Grow(buf, v.WireSize(cellBytes)-OverheadIPUDP)
		buf = append(buf, byte(TypeResponse))
		buf = binary.BigEndian.AppendUint64(buf, v.Slot)
		buf = appendCells(buf, v.Cells, cellBytes)
	default:
		return nil, fmt.Errorf("%w: %T", ErrBadType, m)
	}
	if len(buf)-base > 65507 { // max UDP payload
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(buf)-base)
	}
	return buf, nil
}

// appendCells writes a cell count and the cells.
func appendCells(buf []byte, cells []Cell, cellBytes int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cells)))
	for i := range cells {
		c := &cells[i]
		buf = binary.BigEndian.AppendUint16(buf, c.ID.Row)
		buf = binary.BigEndian.AppendUint16(buf, c.ID.Col)
		if c.Data == nil {
			buf = append(buf, make([]byte, cellBytes)...)
		} else {
			buf = append(buf, c.Data[:cellBytes]...)
		}
		buf = append(buf, c.Proof[:]...)
	}
	return buf
}

// Inbox holds the Seed, Query and Response structs DecodeInto fills. A
// receiver that handles one datagram at a time keeps one Inbox and, once
// the slices inside have grown to the largest message seen, decodes
// without allocating. The zero value is ready to use.
type Inbox struct {
	seed     Seed
	query    Query
	response Response
}

// Decode parses a datagram produced by Encode into a fresh message. The
// message borrows data (see DecodeInto).
func Decode(data []byte, cellBytes int) (Message, error) {
	return DecodeInto(new(Inbox), data, cellBytes)
}

// DecodeInto parses a datagram produced by Encode, in place: a Seed, Query
// or Response is decoded into the struct the Inbox keeps for its type,
// overwriting the previous message of that type, and every cell payload is
// a sub-slice of data (marked Cell.Borrowed), not a copy. The returned message is
// therefore valid only while data is unchanged and until the next
// DecodeInto with the same Inbox; a transport lends it to its handler
// until the handler returns.
//
// Declared element counts are checked against the bytes present before
// anything is sized from them, so a datagram costs memory in proportion
// to its length, never to what its header claims.
func DecodeInto(in *Inbox, data []byte, cellBytes int) (Message, error) {
	if len(data) < 9 {
		return nil, ErrTruncated
	}
	typ := MsgType(data[0])
	slot := binary.BigEndian.Uint64(data[1:9])
	r := reader{buf: data[9:]}
	switch typ {
	case TypeSeed:
		m := &in.seed
		m.Slot = slot
		if !r.bytes(m.Builder[:]) || !r.bytes(m.ProposerSig[:]) || !r.bytes(m.Commitment[:]) {
			return nil, ErrTruncated
		}
		var ok bool
		if m.ChunkIndex, ok = r.uint16(); !ok {
			return nil, ErrTruncated
		}
		if m.ChunkCount, ok = r.uint16(); !ok {
			return nil, ErrTruncated
		}
		if m.Cells, ok = r.cells(m.Cells, cellBytes); !ok {
			return nil, ErrTruncated
		}
		nBoost, ok := r.count(boostEntryWire)
		if !ok {
			return nil, ErrTruncated
		}
		m.Boost = slices.Grow(m.Boost[:0], nBoost)[:nBoost]
		for i := range m.Boost {
			b := &m.Boost[i]
			b.Line.Kind = blob.LineKind(r.buf[0])
			b.Line.Index = binary.BigEndian.Uint16(r.buf[1:3])
			b.HolderRef = binary.BigEndian.Uint16(r.buf[3:5])
			b.Start = binary.BigEndian.Uint16(r.buf[5:7])
			b.Count = binary.BigEndian.Uint16(r.buf[7:9])
			r.buf = r.buf[boostEntryWire:]
		}
		return m, nil
	case TypeQuery:
		m := &in.query
		m.Slot = slot
		nCells, ok := r.count(4)
		if !ok {
			return nil, ErrTruncated
		}
		m.Cells = slices.Grow(m.Cells[:0], nCells)[:nCells]
		for i := range m.Cells {
			m.Cells[i] = blob.CellID{
				Row: binary.BigEndian.Uint16(r.buf[0:2]),
				Col: binary.BigEndian.Uint16(r.buf[2:4]),
			}
			r.buf = r.buf[4:]
		}
		return m, nil
	case TypeResponse:
		m := &in.response
		m.Slot = slot
		var ok bool
		if m.Cells, ok = r.cells(m.Cells, cellBytes); !ok {
			return nil, ErrTruncated
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
}

// reader is a tiny sequential decoder.
type reader struct {
	buf []byte
}

func (r *reader) bytes(dst []byte) bool {
	if len(r.buf) < len(dst) {
		return false
	}
	copy(dst, r.buf[:len(dst)])
	r.buf = r.buf[len(dst):]
	return true
}

func (r *reader) uint16() (uint16, bool) {
	if len(r.buf) < 2 {
		return 0, false
	}
	v := binary.BigEndian.Uint16(r.buf[:2])
	r.buf = r.buf[2:]
	return v, true
}

func (r *reader) uint32() (uint32, bool) {
	if len(r.buf) < 4 {
		return 0, false
	}
	v := binary.BigEndian.Uint32(r.buf[:4])
	r.buf = r.buf[4:]
	return v, true
}

// count reads an element count and reports whether that many elements of
// elemWire bytes each are actually present behind it.
func (r *reader) count(elemWire int) (int, bool) {
	n, ok := r.uint32()
	if !ok || uint64(n) > uint64(len(r.buf)/elemWire) {
		return 0, false
	}
	return int(n), true
}

// cells reads a cell count and the cells into dst's memory. Payloads
// alias the reader's buffer.
func (r *reader) cells(dst []Cell, cellBytes int) ([]Cell, bool) {
	per := cellWire(cellBytes)
	n, ok := r.count(per)
	if !ok {
		return dst[:0], false
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		c := &dst[i]
		c.ID.Row = binary.BigEndian.Uint16(r.buf[0:2])
		c.ID.Col = binary.BigEndian.Uint16(r.buf[2:4])
		c.Data = r.buf[4 : 4+cellBytes : 4+cellBytes]
		copy(c.Proof[:], r.buf[4+cellBytes:per])
		c.Tainted, c.Borrowed = false, true
		r.buf = r.buf[per:]
	}
	return dst, true
}

// SeedSigningBytes returns the canonical byte string the proposer signs to
// bind a builder's identity to a slot. Every seeding message carries this
// signature so nodes can accept blob data before the block arrives via
// gossip (Section 6.1).
func SeedSigningBytes(slot uint64, builder ids.NodeID) []byte {
	buf := make([]byte, 0, 13+ids.IDSize)
	buf = append(buf, "pandas-seed:"...)
	buf = binary.BigEndian.AppendUint64(buf, slot)
	buf = append(buf, builder[:]...)
	return buf
}
