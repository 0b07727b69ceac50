package blob

import (
	"sync"

	"pandas/internal/rs"
)

// A Codec16 is the FFT twiddle schedule of one geometry plus a pool of
// decode workspaces: immutable, and worth building once rather than per
// reconstructed line, so one per K is shared by all blobs and nodes.
var codecCache sync.Map // Params.K -> *rs.Codec16

func codecFor(p Params) (*rs.Codec16, error) {
	if v, ok := codecCache.Load(p.K); ok {
		return v.(*rs.Codec16), nil
	}
	c, err := rs.New16(p.K, p.N())
	if err != nil {
		return nil, err
	}
	v, _ := codecCache.LoadOrStore(p.K, c)
	return v.(*rs.Codec16), nil
}
