// This file generates synthetic layer-2 rollup workloads: the batched,
// compressed transaction data that fills PANDAS blobs.
//
// The paper's motivation (Sections 1-2) is rollup throughput: optimistic
// and ZK rollups periodically post compressed transaction batches to the
// data availability layer. It produces realistic batch streams
// — variable-size batches from multiple concurrent rollups, with
// compressed-transaction entropy characteristics — and packs them into
// blob payloads, so the example exercises the protocol with the workload
// it was designed for rather than zero-filled buffers.

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// RollupKind mirrors the two families of layer-2 protocols the paper
// discusses.
type RollupKind uint8

// Rollup kinds.
const (
	// Optimistic rollups post compressed transaction batches and rely on
	// fraud proofs (e.g. Arbitrum, Optimism).
	Optimistic RollupKind = iota + 1
	// ZK rollups post validity proofs alongside state diffs (e.g.
	// zkSync, Polygon).
	ZK
)

// String implements fmt.Stringer.
func (k RollupKind) String() string {
	switch k {
	case Optimistic:
		return "optimistic"
	case ZK:
		return "zk"
	default:
		return fmt.Sprintf("RollupKind(%d)", uint8(k))
	}
}

// Batch is one rollup's posting for a slot.
type Batch struct {
	Rollup   uint32
	Kind     RollupKind
	Sequence uint64
	Txs      int
	Data     []byte
}

// batchHeaderSize is the serialized batch header:
// rollup(4) kind(1) sequence(8) txs(4) length(4).
const batchHeaderSize = 21

// WireSize returns the serialized batch size.
func (b *Batch) WireSize() int { return batchHeaderSize + len(b.Data) }

// Generator produces a deterministic stream of rollup batches.
type Generator struct {
	rng     *rand.Rand
	rollups []rollupState
	seq     uint64
}

type rollupState struct {
	id       uint32
	kind     RollupKind
	meanSize int
}

// NewGenerator creates a workload of `rollups` concurrent rollups with
// the given mean batch size in bytes. Roughly a third are ZK rollups,
// matching the contemporary mix.
func NewGenerator(seed int64, rollups, meanBatch int) *Generator {
	if rollups < 1 {
		rollups = 1
	}
	if meanBatch < 64 {
		meanBatch = 64
	}
	g := &Generator{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < rollups; i++ {
		kind := Optimistic
		if g.rng.Intn(3) == 0 {
			kind = ZK
		}
		// Rollup sizes are heterogeneous: a few big ones dominate.
		mean := meanBatch / 2
		if g.rng.Intn(4) == 0 {
			mean = meanBatch * 2
		}
		g.rollups = append(g.rollups, rollupState{id: uint32(i), kind: kind, meanSize: mean})
	}
	return g
}

// NextBatch produces the next batch, round-robin across rollups with
// exponential-ish size variation. Compressed transaction data is modeled
// as high-entropy bytes (compression removes redundancy).
func (g *Generator) NextBatch() *Batch {
	r := g.rollups[int(g.seq)%len(g.rollups)]
	g.seq++
	size := int(float64(r.meanSize) * (0.25 + g.rng.ExpFloat64()))
	if size < 32 {
		size = 32
	}
	data := make([]byte, size)
	g.rng.Read(data)
	// ZK rollups carry a validity proof header (constant-size, modeled).
	txs := size / 120 // ~120 compressed bytes per transaction
	if r.kind == ZK {
		txs = size / 40 // state diffs are denser
	}
	if txs < 1 {
		txs = 1
	}
	return &Batch{Rollup: r.id, Kind: r.kind, Sequence: g.seq, Txs: txs, Data: data}
}

// FillBlob packs batches into a blob payload of the given capacity,
// returning the payload and the packed batches. The payload begins with
// a 4-byte batch count; each batch is length-prefixed, so UnpackBlob can
// recover the stream.
func (g *Generator) FillBlob(capacity int) ([]byte, []*Batch) {
	payload := make([]byte, 4, capacity)
	var packed []*Batch
	for {
		b := g.NextBatch()
		if len(payload)+b.WireSize() > capacity {
			break
		}
		payload = appendBatch(payload, b)
		packed = append(packed, b)
	}
	binary.BigEndian.PutUint32(payload[:4], uint32(len(packed)))
	return payload, packed
}

func appendBatch(buf []byte, b *Batch) []byte {
	buf = binary.BigEndian.AppendUint32(buf, b.Rollup)
	buf = append(buf, byte(b.Kind))
	buf = binary.BigEndian.AppendUint64(buf, b.Sequence)
	buf = binary.BigEndian.AppendUint32(buf, uint32(b.Txs))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b.Data)))
	buf = append(buf, b.Data...)
	return buf
}

// ErrCorrupt reports a malformed blob payload.
var ErrCorrupt = errors.New("l2: corrupt blob payload")

// UnpackBlob recovers the batch stream from a blob payload produced by
// FillBlob. This is what a rollup participant does after retrieving its
// data from the availability layer.
func UnpackBlob(payload []byte) ([]*Batch, error) {
	if len(payload) < 4 {
		return nil, ErrCorrupt
	}
	count := int(binary.BigEndian.Uint32(payload[:4]))
	rest := payload[4:]
	out := make([]*Batch, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < batchHeaderSize {
			return nil, fmt.Errorf("%w: truncated header at batch %d", ErrCorrupt, i)
		}
		b := &Batch{
			Rollup:   binary.BigEndian.Uint32(rest[0:4]),
			Kind:     RollupKind(rest[4]),
			Sequence: binary.BigEndian.Uint64(rest[5:13]),
			Txs:      int(binary.BigEndian.Uint32(rest[13:17])),
		}
		size := int(binary.BigEndian.Uint32(rest[17:21]))
		rest = rest[batchHeaderSize:]
		if len(rest) < size {
			return nil, fmt.Errorf("%w: truncated data at batch %d", ErrCorrupt, i)
		}
		b.Data = append([]byte(nil), rest[:size]...)
		rest = rest[size:]
		out = append(out, b)
	}
	return out, nil
}

// Throughput summarizes a packed blob in layer-2 terms.
type Throughput struct {
	Batches int
	Txs     int
	Bytes   int
}

// Summarize computes throughput figures for packed batches.
func Summarize(batches []*Batch) Throughput {
	t := Throughput{Batches: len(batches)}
	for _, b := range batches {
		t.Txs += b.Txs
		t.Bytes += b.WireSize()
	}
	return t
}
