package rs

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"pandas/internal/gf65536"
)

// The differential oracle: the systematic Vandermonde matrix codec that
// Codec16 replaced, kept word for word in its arithmetic (one gf65536.Mul
// per product, no tables, no FFT) so that it shares nothing with the code
// under test. Encoding multiplies by the n x k matrix V·V_top^-1 (V the
// Vandermonde matrix on the points 0..n-1); decoding inverts the rows of
// the first k present shards by Gauss-Jordan, recovers the missing data
// shards, then regenerates missing parity from the data.

var errSingular = errors.New("rs: matrix is singular")

// matrix16 is a dense row-major matrix over GF(2^16).
type matrix16 struct {
	rows, cols int
	data       []uint16
}

func newMatrix16(rows, cols int) matrix16 {
	return matrix16{rows: rows, cols: cols, data: make([]uint16, rows*cols)}
}

func (m matrix16) at(r, c int) uint16     { return m.data[r*m.cols+c] }
func (m matrix16) set(r, c int, v uint16) { m.data[r*m.cols+c] = v }
func (m matrix16) row(r int) []uint16     { return m.data[r*m.cols : (r+1)*m.cols] }

// mulAddRow sets dst[i] ^= c * src[i].
func mulAddRow(c uint16, src, dst []uint16) {
	for i, s := range src {
		dst[i] ^= gf65536.Mul(c, s)
	}
}

func (m matrix16) mul(other matrix16) matrix16 {
	if m.cols != other.rows {
		panic("rs: matrix16 dimension mismatch")
	}
	out := newMatrix16(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			if a := m.at(r, k); a != 0 {
				mulAddRow(a, other.row(k), out.row(r))
			}
		}
	}
	return out
}

func (m matrix16) invert() (matrix16, error) {
	if m.rows != m.cols {
		panic("rs: cannot invert non-square matrix16")
	}
	n := m.rows
	work := newMatrix16(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.row(r)[:n], m.row(r))
		work.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix16{}, errSingular
		}
		if pivot != col {
			pr, cr := work.row(pivot), work.row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		if pv := work.at(col, col); pv != 1 {
			inv := gf65536.Inv(pv)
			for i, v := range work.row(col) {
				work.row(col)[i] = gf65536.Mul(inv, v)
			}
		}
		for r := 0; r < n; r++ {
			if f := work.at(r, col); r != col && f != 0 {
				mulAddRow(f, work.row(col), work.row(r))
			}
		}
	}
	out := newMatrix16(n, n)
	for r := 0; r < n; r++ {
		copy(out.row(r), work.row(r)[n:])
	}
	return out, nil
}

func vandermonde16(rows, cols int) matrix16 {
	m := newMatrix16(rows, cols)
	for r := 0; r < rows; r++ {
		v := uint16(1) // r^c, with 0^0 = 1
		for c := 0; c < cols; c++ {
			m.set(r, c, v)
			v = gf65536.Mul(v, uint16(r))
		}
	}
	return m
}

// oracleCodec is the matrix codec for one geometry.
type oracleCodec struct {
	k, n   int
	encode matrix16 // n x k, top k rows identity
}

// oracles caches the codecs: building the k=256 one costs two 256^3
// scalar products.
var oracles = map[int]*oracleCodec{}

func oracleFor(t testing.TB, k int) *oracleCodec {
	t.Helper()
	if o := oracles[k]; o != nil {
		return o
	}
	n := 2 * k
	v := vandermonde16(n, k)
	top := newMatrix16(k, k)
	copy(top.data, v.data[:k*k])
	topInv, err := top.invert()
	if err != nil {
		t.Fatalf("oracle k=%d: %v", k, err)
	}
	o := &oracleCodec{k: k, n: n, encode: v.mul(topInv)}
	oracles[k] = o
	return o
}

// mulRowInto sets dst = sum_j row[j]*srcs[j] over big-endian words.
func mulRowInto(row []uint16, srcs [][]byte, dst []byte) {
	clear(dst)
	for j, c := range row {
		for w := 0; w+1 < len(dst); w += 2 {
			v := gf65536.Mul(c, binary.BigEndian.Uint16(srcs[j][w:]))
			dst[w] ^= byte(v >> 8)
			dst[w+1] ^= byte(v)
		}
	}
}

// encodeShards fills parity shards k..n-1 with fresh slices.
func (o *oracleCodec) encodeShards(shards [][]byte) {
	for i := o.k; i < o.n; i++ {
		shards[i] = make([]byte, len(shards[0]))
		mulRowInto(o.encode.row(i), shards[:o.k], shards[i])
	}
}

// reconstruct fills nil shards; it assumes at least k equally sized
// present shards (Codec16's input checks are tested on their own).
func (o *oracleCodec) reconstruct(shards [][]byte) {
	var chosen []int
	size := 0
	for i, s := range shards {
		if s != nil && len(chosen) < o.k {
			chosen = append(chosen, i)
			size = len(s)
		}
	}
	sub := newMatrix16(o.k, o.k)
	srcs := make([][]byte, o.k)
	for r, idx := range chosen {
		copy(sub.row(r), o.encode.row(idx))
		srcs[r] = shards[idx]
	}
	dec, err := sub.invert()
	if err != nil {
		panic(err) // any k rows of a Vandermonde-derived matrix are independent
	}
	for j := 0; j < o.k; j++ {
		if shards[j] == nil {
			out := make([]byte, size)
			mulRowInto(dec.row(j), srcs, out)
			shards[j] = out
		}
	}
	for i := o.k; i < o.n; i++ {
		if shards[i] == nil {
			shards[i] = make([]byte, size)
			mulRowInto(o.encode.row(i), shards[:o.k], shards[i])
		}
	}
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := newMatrix16(5, 5)
	for i := 0; i < 5; i++ {
		id.set(i, i, 1)
	}
	inv, err := id.invert()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range inv.data {
		if v != id.data[i] {
			t.Fatalf("inverse of identity differs at %d: %d", i, v)
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := newMatrix16(2, 2)
	copy(m.data, []uint16{1, 2, 1, 2}) // identical rows
	if _, err := m.invert(); !errors.Is(err, errSingular) {
		t.Fatalf("err = %v, want errSingular", err)
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		m := newMatrix16(n, n)
		for i := range m.data {
			m.data[i] = uint16(rng.Intn(gf65536.Order))
		}
		inv, err := m.invert()
		if errors.Is(err, errSingular) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		prod := m.mul(inv)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				want := uint16(0)
				if r == c {
					want = 1
				}
				if prod.at(r, c) != want {
					t.Fatalf("n=%d: (m*inv)[%d][%d] = %d", n, r, c, prod.at(r, c))
				}
			}
		}
	}
}
