package blob

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Extended is the 2K x 2K erasure-extended matrix. Every row and every
// column is a rate-1/2 Reed-Solomon codeword: any K of its 2K cells
// suffice to reconstruct the rest.
//
// All n*n cells live in one contiguous row-major backing array — row r
// is the byte range [r*n*CellBytes, (r+1)*n*CellBytes) — so rows can be
// hashed and encoded as single contiguous spans and the whole matrix
// can be recycled across slots via ExtendOptions.Reuse.
type Extended struct {
	params  Params
	n       int
	backing []byte // n*n*CellBytes, row-major
}

// ExtendOptions tunes the two-dimensional extension. Codewords are coded
// on a pool of GOMAXPROCS workers (with one, on the calling goroutine);
// any worker count produces bit-identical cells, since codewords are
// independent and write disjoint cells.
type ExtendOptions struct {
	// Reuse recycles the backing arena of a previous extension with the
	// same geometry (the returned *Extended is then the same object,
	// fully overwritten). The caller must be done reading the previous
	// matrix. A nil or mismatched Reuse allocates fresh.
	Reuse *Extended
	// OnRowPhase, when non-nil, is invoked once on its own goroutine as
	// soon as the row phase completes: rows 0..K-1 (data and row parity)
	// are final and safe to read while the column phase is still
	// computing rows K..n-1, which lets callers overlap per-row work
	// (hashing, seeding) with the remaining encode. The hook is joined
	// before the extend call returns.
	OnRowPhase func(e *Extended)
}

// shardsPool recycles the per-worker [][]byte codeword headers so the
// steady-state extension performs zero per-cell allocations.
var shardsPool sync.Pool

func getShardHeaders(n int) [][]byte {
	sh, _ := shardsPool.Get().([][]byte)
	if cap(sh) < n {
		return make([][]byte, n)
	}
	return sh[:n]
}

// putShardHeaders pools headers cleared: one left pointing into a matrix
// would keep the whole matrix alive for as long as the pool holds it.
func putShardHeaders(sh [][]byte) {
	clear(sh[:cap(sh)])
	shardsPool.Put(sh) //nolint:staticcheck // slice header boxing is fine
}

// ExtendData erasure-codes packed data (zero-padding the tail) in two
// dimensions: rows of the base matrix first (K -> 2K cells per row), then
// every column of the widened matrix (K -> 2K cells per column). Because
// the code is linear, the "parity of parity" quadrant is consistent
// whichever dimension is coded first. The data quadrant is written
// straight into the extended matrix's backing as each row codeword is
// loaded. Returns ErrDataTooLarge if data exceeds the blob capacity.
func ExtendData(p Params, data []byte, opt ExtendOptions) (*Extended, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(data) > p.BlobBytes() {
		return nil, fmt.Errorf("%w: %d > %d", ErrDataTooLarge, len(data), p.BlobBytes())
	}
	n := p.N()
	codec, err := codecFor(p)
	if err != nil {
		return nil, fmt.Errorf("blob: create codec: %w", err)
	}
	size := n * n * p.CellBytes
	e := opt.Reuse
	if e == nil || e.params != p || cap(e.backing) < size {
		e = &Extended{params: p, n: n, backing: make([]byte, size)}
	}
	e.backing = e.backing[:size]

	workers := runtime.GOMAXPROCS(0)

	cb := p.CellBytes
	rowSpan := n * cb
	// Row phase: K row codewords, then a barrier (columns read the row
	// parity), then n column codewords. Every codeword encodes in place
	// over cell-sized windows of the contiguous backing.
	encodeRow := func(sh [][]byte, r int) error {
		row := e.backing[r*rowSpan : (r+1)*rowSpan]
		nc := 0
		if off := r * p.K * cb; off < len(data) {
			nc = copy(row[:p.K*cb], data[off:])
		}
		clear(row[nc : p.K*cb])
		for j := 0; j < n; j++ {
			sh[j] = row[j*cb : (j+1)*cb : (j+1)*cb]
		}
		if err := codec.Encode(sh); err != nil {
			return fmt.Errorf("blob: extend row %d: %w", r, err)
		}
		return nil
	}
	// Column phase: adjacent columns are independent codewords that share
	// one twiddle schedule, and every coding step (XOR, per-word multiply)
	// is elementwise — so a panel of adjacent columns encodes as ONE wide
	// codeword whose shard r is the contiguous panel span of row r. This
	// is bit-identical to per-column encoding but replaces cell-sized
	// strided copies and butterflies with streaming multi-KB ones.
	panelCols := 1
	if cb < 4096 {
		panelCols = 4096 / cb
	}
	panels := (n + panelCols - 1) / panelCols
	encodePanel := func(sh [][]byte, pi int) error {
		c0 := pi * panelCols
		pw := min(panelCols, n-c0) * cb
		for r := 0; r < n; r++ {
			off := r*rowSpan + c0*cb
			sh[r] = e.backing[off : off+pw : off+pw]
		}
		if err := codec.Encode(sh); err != nil {
			return fmt.Errorf("blob: extend column panel at %d: %w", c0, err)
		}
		return nil
	}
	if err := runCodewords(workers, n, p.K, encodeRow); err != nil {
		return nil, err
	}
	// The hook may read rows 0..K-1 concurrently with the column phase,
	// which only writes rows K..n-1. Join it before returning so the
	// caller regains exclusive ownership of the matrix.
	var hookWG sync.WaitGroup
	if opt.OnRowPhase != nil {
		hookWG.Add(1)
		go func(hook func(*Extended)) {
			defer hookWG.Done()
			hook(e)
		}(opt.OnRowPhase)
		defer hookWG.Wait()
	}
	if err := runCodewords(workers, n, panels, encodePanel); err != nil {
		return nil, err
	}
	return e, nil
}

// runCodewords runs fn(scratch, i) for i in [0, count) across a bounded
// worker pool. Each worker owns one pooled codeword-header scratch of
// length n. With one worker everything runs on the calling goroutine.
func runCodewords(workers, n, count int, fn func(sh [][]byte, i int) error) error {
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		sh := getShardHeaders(n)
		defer putShardHeaders(sh)
		for i := 0; i < count; i++ {
			if err := fn(sh, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		errOnce sync.Once
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := getShardHeaders(n)
			defer putShardHeaders(sh)
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				if err := fn(sh, i); err != nil {
					errOnce.Do(func() { firstEr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// Params returns the blob geometry.
func (e *Extended) Params() Params { return e.params }

// N returns the extended matrix width.
func (e *Extended) N() int { return e.n }

// Cell returns the payload of the extended cell. The returned slice
// aliases internal storage.
func (e *Extended) Cell(id CellID) []byte {
	cb := e.params.CellBytes
	off := id.Index(e.n) * cb
	return e.backing[off : off+cb : off+cb]
}

// RowBytes returns the contiguous byte span of row r (n cells of
// CellBytes each), aliasing internal storage. Row-wise consumers
// (hashing, seeding) should prefer this over n Cell calls.
func (e *Extended) RowBytes(r int) []byte {
	span := e.n * e.params.CellBytes
	return e.backing[r*span : (r+1)*span]
}

// Line returns the payloads of all cells along the given row or column.
func (e *Extended) Line(l Line) [][]byte {
	out := make([][]byte, e.n)
	for i, id := range l.Cells(e.n) {
		out[i] = e.Cell(id)
	}
	return out
}

// ReconstructLine recovers a complete row or column from a partial set of
// its cells, for nodes that do not hold a full Extended matrix. shards
// has one entry per position along the line (2K of them), empty where the
// cell is missing; at least K must be present. A missing entry with
// capacity for a cell is decoded into in place (the memory must overlap
// no other cell), any other, nil included, is filled with a fresh slice;
// present cells are neither read beyond the first K nor written.
func ReconstructLine(p Params, shards [][]byte) error {
	if len(shards) != p.N() {
		return fmt.Errorf("%w: line has %d positions, want %d", ErrBadCell, len(shards), p.N())
	}
	have := 0
	for _, cell := range shards {
		if len(cell) != 0 {
			have++
		}
	}
	if have < p.K {
		return fmt.Errorf("%w: have %d of %d needed", ErrNotEnough, have, p.K)
	}
	for pos, cell := range shards {
		if len(cell) != 0 && len(cell) != p.CellBytes {
			return fmt.Errorf("%w: cell at %d has %d bytes, want %d", ErrBadCell, pos, len(cell), p.CellBytes)
		}
	}
	codec, err := codecFor(p)
	if err != nil {
		return fmt.Errorf("blob: create codec: %w", err)
	}
	if err := codec.Reconstruct(shards); err != nil {
		return fmt.Errorf("blob: reconstruct line: %w", err)
	}
	return nil
}
