package membership

import (
	"math/rand"
	"testing"
)

// TestSampledViewStatistics checks the drawn view behaves like a
// uniform (keep) sample: self always visible, deterministic, and the
// visible fraction close to keep for several nodes.
func TestSampledViewStatistics(t *testing.T) {
	const n = 20000
	for _, keep := range []float64{0.2, 0.6, 0.8} {
		for self := 0; self < 5; self++ {
			v := NewPeerView(12345, self, keep)
			if !v.Contains(self) {
				t.Fatalf("keep=%v: node %d cannot see itself", keep, self)
			}
			count := 0
			for p := 0; p < n; p++ {
				if p != self && v.Contains(p) {
					count++
				}
			}
			frac := float64(count) / float64(n-1)
			if frac < keep-0.02 || frac > keep+0.02 {
				t.Errorf("keep=%v self=%d: visible fraction %.4f off by more than 0.02", keep, self, frac)
			}
			// Determinism: a second instance agrees everywhere.
			v2 := NewPeerView(12345, self, keep)
			for p := 0; p < 100; p++ {
				if v.Contains(p) != v2.Contains(p) {
					t.Fatalf("keep=%v self=%d: nondeterministic at peer %d", keep, self, p)
				}
			}
		}
	}
}

// TestSampledViewIndependence: different nodes (and different seeds)
// must not share the same visible subset.
func TestSampledViewIndependence(t *testing.T) {
	a := NewPeerView(1, 0, 0.5)
	b := NewPeerView(1, 1, 0.5)
	c := NewPeerView(2, 0, 0.5)
	sameAB, sameAC := 0, 0
	const n = 4096
	for p := 2; p < n; p++ {
		if a.Contains(p) == b.Contains(p) {
			sameAB++
		}
		if a.Contains(p) == c.Contains(p) {
			sameAC++
		}
	}
	// Independent 50% draws agree about half the time; identical draws
	// would agree always.
	if sameAB > n*3/4 || sameAC > n*3/4 {
		t.Fatalf("views look correlated: sameAB=%d sameAC=%d of %d", sameAB, sameAC, n)
	}
}

// TestSampledViewEdges pins the degenerate keep fractions.
func TestSampledViewEdges(t *testing.T) {
	none := NewPeerView(9, 3, 0)
	all := NewPeerView(9, 3, 1)
	for p := 0; p < 100; p++ {
		if p != 3 && none.Contains(p) {
			t.Fatalf("keep=0 sees peer %d", p)
		}
		if !all.Contains(p) {
			t.Fatalf("keep=1 misses peer %d", p)
		}
	}
}

// refView is the map-based view PeerView replaced: the drawn subset
// materialized as a set, updated in place by announcements, with a copy
// of the subset kept so a restart can re-add it.
type refView struct {
	known     map[int]bool
	bootstrap []int
}

func newRefView(bootstrap []int) *refView {
	r := &refView{known: make(map[int]bool), bootstrap: bootstrap}
	r.reload()
	return r
}

func (r *refView) add(p int)    { r.known[p] = true }
func (r *refView) remove(p int) { delete(r.known, p) }
func (r *refView) reload() {
	for _, p := range r.bootstrap {
		r.known[p] = true
	}
}

// TestPeerViewMatchesReference drives a PeerView and the map-based
// reference through the same random Add/Remove/Reload sequences, on
// drawn and full views, and compares their answers for every peer
// after every step.
func TestPeerViewMatchesReference(t *testing.T) {
	const n, steps = 60, 400
	rng := rand.New(rand.NewSource(1))
	for _, keep := range []float64{0, 0.2, 0.5, 1} {
		for self := 0; self < 4; self++ {
			v := NewPeerView(77, self, keep)
			var boot []int
			for p := 0; p < n; p++ {
				if v.Contains(p) {
					boot = append(boot, p)
				}
			}
			ref := newRefView(boot)
			for step := 0; step < steps; step++ {
				p := rng.Intn(n)
				op := rng.Intn(5)
				switch {
				case op < 2:
					v.Add(p)
					ref.add(p)
				case op < 4:
					v.Remove(p)
					ref.remove(p)
				default:
					v.Reload()
					ref.reload()
				}
				for q := 0; q < n; q++ {
					if got, want := v.Contains(q), ref.known[q]; got != want {
						t.Fatalf("keep=%v self=%d step %d (op %d on %d): peer %d in view %v, reference %v",
							keep, self, step, op, p, q, got, want)
					}
				}
			}
		}
	}
}
