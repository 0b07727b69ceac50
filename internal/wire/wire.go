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
	"math"
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
	// MaxDatagram is the largest UDP payload: EncodeAppend refuses a
	// message that encodes to more.
	MaxDatagram = 65507
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
	// ErrBadBoost is a boost map that is not in canonical form: an empty
	// run, a run that mixes lines, a parcel with no holders, a zero count
	// or one that ends past 65,535, an overlong count, or a rank width
	// other than the smallest that holds the run's ranks.
	ErrBadBoost = errors.New("wire: malformed boost map")
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

// CellWire returns the per-cell wire cost: 4-byte ID + payload + proof.
func CellWire(cellBytes int) int { return 4 + cellBytes + kzg.ProofSize }

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

// The boost section of a Seed is encoded by parcel: the builder sends a
// parcel's copies back to back and a line's parcels in order along the
// line, so a line's entries come in stretches of parcels that each start
// where the previous one ended and name the same number of holders. The
// section is a run count (4) and the runs. A run is its line (kind 1 +
// index 2), its first parcel's start (2), its parcel count (2), the
// holders per parcel h (1) and the rank width w (1; it is 1 when every
// rank in the run is below 256, else 2), then each parcel as its count
// (a minimal unsigned varint) and its h holders' ranks (w bytes each),
// each parcel starting where the previous one ended. A parcel is a
// longest stretch of consecutive entries sharing (start, count), cut at
// maxParcelHolders; the encoder opens a new run wherever a parcel does not
// start where the previous one ended (withholding, a holderless crossing
// line, a cut parcel) or names a different number of holders. At h = 2 a
// parcel costs 3 bytes (w = 1) or 5 (w = 2).
const (
	boostRunHead     = 9
	maxParcelHolders = 255
	// minBoostRun is the smallest run, one parcel of one 1-byte rank and
	// a 1-byte count: what a declared run count must find behind it.
	minBoostRun = boostRunHead + 2
)

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
	// Boost is the consolidation-boost map the datagram carries, in runs:
	// each run is a non-empty list of entries on one line, encoded as one
	// or more runs of the format (see boostRunHead). The builder's runs
	// alias one shared entry list per line. A decoded Seed has one run per
	// encoded run, so a line's entries may come in several.
	Boost [][]BoostEntry
}

// BoostEntries returns the number of boost entries the datagram carries.
func (m *Seed) BoostEntries() int {
	n := 0
	for _, run := range m.Boost {
		n += len(run)
	}
	return n
}

// parcelLen returns the number of entries in the parcel at the head of a
// non-empty entry list: those that share the first entry's line, start
// and count, at most maxParcelHolders.
func parcelLen(es []BoostEntry) int {
	k := 1
	for k < len(es) && k < maxParcelHolders && es[k].Line == es[0].Line &&
		es[k].Start == es[0].Start && es[k].Count == es[0].Count {
		k++
	}
	return k
}

// boostRun is the shape of one encoded run: its entries, parcels,
// holders per parcel, rank width and bytes.
type boostRun struct {
	entries, parcels, holders, width, size int
	// cut is set when the next parcel would continue the run but did
	// not fit.
	cut bool
}

// headRun measures the run the encoder writes for the head of a
// non-empty entry list, taking whole parcels while they continue it and
// the run fits in room bytes.
func headRun(es []BoostEntry, room int) boostRun {
	line, h := es[0].Line, parcelLen(es)
	n, parcels, counts, maxRank, end := 0, 0, 0, 0, int(es[0].Start)
	width, size, cut := 1, 0, false
	for n < len(es) {
		p := es[n:]
		if p[0].Line != line || int(p[0].Start) != end || parcelLen(p) != h {
			break
		}
		c, top := counts+uvarintLen(p[0].Count), maxRank
		for _, e := range p[:h] {
			top = max(top, int(e.HolderRef))
		}
		w := rankWidth(top)
		s := boostRunHead + c + (parcels+1)*h*w
		if s > room {
			cut = true
			break
		}
		n, parcels = n+h, parcels+1
		counts, maxRank, width, size = c, top, w, s
		end = int(p[0].Start) + int(p[0].Count)
	}
	return boostRun{entries: n, parcels: parcels, holders: h, width: width, size: size, cut: cut}
}

// rankWidth is the bytes a run's ranks take when the largest is top.
func rankWidth(top int) int {
	if top < 256 {
		return 1
	}
	return 2
}

// uvarintLen is the length of v as an unsigned varint.
func uvarintLen(v uint16) int {
	switch {
	case v < 1<<7:
		return 1
	case v < 1<<14:
		return 2
	}
	return 3
}

// FitBoost returns how many entries at the head of a one-line entry
// list, cut between parcels, encode in at most room bytes, and the bytes
// they take: a sender packs a line's entries into datagrams by it. It
// returns 0, 0 when not even the first parcel fits.
func FitBoost(es []BoostEntry, room int) (n, size int) {
	for n < len(es) {
		r := headRun(es[n:], room-size)
		n, size = n+r.entries, size+r.size
		if r.cut {
			break
		}
	}
	return n, size
}

// Type implements Message.
func (*Seed) Type() MsgType { return TypeSeed }

// seedFixed is a Seed's bytes besides cells and runs: type, slot, builder,
// signature, commitment, chunk index and count, cell and run counts.
const seedFixed = 1 + 8 + ids.IDSize + SigSize + kzg.CommitmentSize + 4 + 4 + 4

// WireSize implements Message.
func (m *Seed) WireSize(cellBytes int) int {
	size := OverheadIPUDP + seedFixed + len(m.Cells)*CellWire(cellBytes)
	for _, run := range m.Boost {
		_, runWire := FitBoost(run, math.MaxInt) // a whole run
		size += runWire
	}
	return size
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
	return OverheadIPUDP + 1 + 8 + 4 + len(m.Cells)*CellWire(cellBytes)
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
		// The runs are measured only as appendBoost writes them: a sender
		// that reuses its buffer has room for them.
		buf = slices.Grow(buf, seedFixed+len(v.Cells)*CellWire(cellBytes))
		buf = append(buf, byte(TypeSeed))
		buf = binary.BigEndian.AppendUint64(buf, v.Slot)
		buf = append(buf, v.Builder[:]...)
		buf = append(buf, v.ProposerSig[:]...)
		buf = append(buf, v.Commitment[:]...)
		buf = binary.BigEndian.AppendUint16(buf, v.ChunkIndex)
		buf = binary.BigEndian.AppendUint16(buf, v.ChunkCount)
		buf = appendCells(buf, v.Cells, cellBytes)
		var err error
		if buf, err = appendBoost(buf, v.Boost); err != nil {
			return nil, err
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
	if len(buf)-base > MaxDatagram {
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

// appendBoost writes a Seed's boost section (see boostRunHead).
func appendBoost(buf []byte, runs [][]BoostEntry) ([]byte, error) {
	at, count := len(buf), 0
	buf = append(buf, 0, 0, 0, 0) // the run count, known once the runs are written
	for _, es := range runs {
		if len(es) == 0 {
			return nil, fmt.Errorf("%w: empty run", ErrBadBoost)
		}
		line := es[0].Line
		for len(es) > 0 {
			if es[0].Line != line {
				return nil, fmt.Errorf("%w: run mixes lines %v and %v", ErrBadBoost, line, es[0].Line)
			}
			r := headRun(es, math.MaxInt)
			buf = append(buf, byte(line.Kind))
			buf = binary.BigEndian.AppendUint16(buf, line.Index)
			buf = binary.BigEndian.AppendUint16(buf, es[0].Start)
			// A parcel count past 16 bits means more than MaxDatagram
			// bytes of parcels, which the size check refuses.
			buf = binary.BigEndian.AppendUint16(buf, uint16(r.parcels))
			buf = append(buf, byte(r.holders), byte(r.width))
			for p := es[:r.entries]; len(p) > 0; p = p[r.holders:] {
				switch {
				case p[0].Count == 0:
					return nil, fmt.Errorf("%w: zero count", ErrBadBoost)
				case int(p[0].Start)+int(p[0].Count) > math.MaxUint16:
					return nil, fmt.Errorf("%w: parcel past 65535", ErrBadBoost)
				}
				buf = binary.AppendUvarint(buf, uint64(p[0].Count))
				if r.width == 1 {
					for _, e := range p[:r.holders] {
						buf = append(buf, byte(e.HolderRef))
					}
				} else {
					for _, e := range p[:r.holders] {
						buf = binary.BigEndian.AppendUint16(buf, e.HolderRef)
					}
				}
			}
			es = es[r.entries:]
			count++
		}
	}
	binary.BigEndian.PutUint32(buf[at:], uint32(count))
	return buf, nil
}

// Inbox holds the Seed, Query and Response structs DecodeInto fills. A
// receiver that handles one datagram at a time keeps one Inbox and, once
// the slices inside have grown to the largest message seen, decodes
// without allocating. The zero value is ready to use.
type Inbox struct {
	seed     Seed
	query    Query
	response Response
	boost    []BoostEntry // the entries the seed's runs slice
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
		var err error
		if m.Boost, in.boost, err = r.boost(m.Boost, in.boost); err != nil {
			return nil, err
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

// boost reads a Seed's boost section: the runs into runs' memory, their
// entries into arena's. Every count is checked against the bytes behind
// it before anything is appended, and a section the encoder would not
// have written is ErrBadBoost, so what decodes re-encodes to its bytes.
func (r *reader) boost(runs [][]BoostEntry, arena []BoostEntry) ([][]BoostEntry, []BoostEntry, error) {
	runs, arena = runs[:0], arena[:0]
	nRuns, ok := r.count(minBoostRun)
	if !ok {
		return runs, arena, ErrTruncated
	}
	for range nRuns {
		if len(r.buf) < boostRunHead {
			return runs, arena, ErrTruncated
		}
		line := blob.Line{Kind: blob.LineKind(r.buf[0]), Index: binary.BigEndian.Uint16(r.buf[1:3])}
		start := int(binary.BigEndian.Uint16(r.buf[3:5]))
		parcels := int(binary.BigEndian.Uint16(r.buf[5:7]))
		holders, width := int(r.buf[7]), int(r.buf[8])
		r.buf = r.buf[boostRunHead:]
		switch {
		case parcels == 0:
			return runs, arena, fmt.Errorf("%w: empty run", ErrBadBoost)
		case holders == 0:
			return runs, arena, fmt.Errorf("%w: no holders", ErrBadBoost)
		case width != 1 && width != 2:
			return runs, arena, fmt.Errorf("%w: rank width %d", ErrBadBoost, width)
		case parcels*(1+holders*width) > len(r.buf):
			return runs, arena, ErrTruncated
		}
		// The check above bounds the entries by the bytes behind them.
		lo, maxRank, b := len(arena), 0, r.buf
		arena = slices.Grow(arena, parcels*holders)
		for range parcels {
			count, n := binary.Uvarint(b)
			switch {
			case n == 0:
				return runs, arena, ErrTruncated
			case n < 0 || n > 1 && b[n-1] == 0:
				return runs, arena, fmt.Errorf("%w: overlong count", ErrBadBoost)
			case count == 0:
				return runs, arena, fmt.Errorf("%w: zero count", ErrBadBoost)
			case count > uint64(math.MaxUint16-start):
				return runs, arena, fmt.Errorf("%w: parcel past 65535", ErrBadBoost)
			}
			b = b[n:]
			if len(b) < holders*width {
				return runs, arena, ErrTruncated
			}
			e := BoostEntry{Line: line, Start: uint16(start), Count: uint16(count)}
			if width == 1 {
				for _, rank := range b[:holders] {
					e.HolderRef = uint16(rank)
					maxRank = max(maxRank, int(rank))
					arena = append(arena, e)
				}
			} else {
				for i := 0; i < 2*holders; i += 2 {
					e.HolderRef = binary.BigEndian.Uint16(b[i:])
					maxRank = max(maxRank, int(e.HolderRef))
					arena = append(arena, e)
				}
			}
			b = b[holders*width:]
			start += int(count)
		}
		r.buf = b
		if width != rankWidth(maxRank) {
			return runs, arena, fmt.Errorf("%w: 2-byte ranks all below 256", ErrBadBoost)
		}
		runs = append(runs, arena[lo:]) // rebased below: arena may move
	}
	lo := 0
	for i, run := range runs {
		hi := lo + len(run)
		runs[i] = arena[lo:hi:hi]
		lo = hi
	}
	return runs, arena, nil
}

// cells reads a cell count and the cells into dst's memory. Payloads
// alias the reader's buffer.
func (r *reader) cells(dst []Cell, cellBytes int) ([]Cell, bool) {
	per := CellWire(cellBytes)
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
