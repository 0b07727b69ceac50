package latency

import (
	"math/rand"
	"testing"
	"time"
)

func TestRegionWeightsSumToOne(t *testing.T) {
	sum := 0.0
	for _, r := range regions {
		sum += r.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestRegionRTTSymmetricAndPositive(t *testing.T) {
	n := len(regionRTTms)
	if n != len(regions) {
		t.Fatalf("matrix size %d != regions %d", n, len(regions))
	}
	for i := 0; i < n; i++ {
		if len(regionRTTms[i]) != n {
			t.Fatalf("row %d has %d entries", i, len(regionRTTms[i]))
		}
		for j := 0; j < n; j++ {
			if regionRTTms[i][j] <= 0 {
				t.Fatalf("non-positive RTT at (%d,%d)", i, j)
			}
			if regionRTTms[i][j] != regionRTTms[j][i] {
				t.Fatalf("asymmetric RTT at (%d,%d)", i, j)
			}
		}
		for j := 0; j < n; j++ {
			if i != j && regionRTTms[i][i] > regionRTTms[i][j] {
				t.Fatalf("intra-region RTT exceeds inter-region at (%d,%d)", i, j)
			}
		}
	}
}

func TestTopologyDeterministic(t *testing.T) {
	t1 := NewIPFSLike(1, 500)
	t2 := NewIPFSLike(1, 500)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j += 7 {
			if t1.Delay(i, j) != t2.Delay(i, j) {
				t.Fatalf("delay(%d,%d) differs across same-seed topologies", i, j)
			}
		}
	}
	t3 := NewIPFSLike(2, 500)
	diff := false
	for i := 0; i < 20 && !diff; i++ {
		if t1.Delay(i, i+1) != t3.Delay(i, i+1) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestTopologySymmetricRTT(t *testing.T) {
	tp := NewIPFSLike(3, 200)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if tp.RTT(i, j) != tp.RTT(j, i) {
				t.Fatalf("RTT(%d,%d) asymmetric", i, j)
			}
		}
	}
}

func TestTopologyMatchesTraceStatistics(t *testing.T) {
	// The paper's trace: RTT in [8 ms, 438 ms], mean 64 ms. Our synthetic
	// model must land in the same ballpark: mean within [45, 95] ms, min
	// below 20 ms, max within [250, 600] ms.
	tp := NewIPFSLike(42, 10000)
	s := sampleStats(tp, 30000, 7)
	if s.Mean < 45*time.Millisecond || s.Mean > 95*time.Millisecond {
		t.Fatalf("mean RTT %v outside [45ms, 95ms]", s.Mean)
	}
	if s.Min > 20*time.Millisecond {
		t.Fatalf("min RTT %v too high", s.Min)
	}
	if s.Max < 250*time.Millisecond || s.Max > 600*time.Millisecond {
		t.Fatalf("max RTT %v outside [250ms, 600ms]", s.Max)
	}
}

func TestDelayIsHalfRTT(t *testing.T) {
	tp := NewIPFSLike(4, 100)
	for i := 0; i < 10; i++ {
		if tp.Delay(i, i+1) != tp.RTT(i, i+1)/2 {
			t.Fatal("Delay != RTT/2")
		}
	}
}

func TestVertexReuseBeyondCount(t *testing.T) {
	tp := NewIPFSLike(5, 100)
	// Node 150 maps to the same vertex as node 50.
	if tp.Delay(150, 7) != tp.Delay(50, 7) {
		t.Fatal("vertex reuse (mod count) broken")
	}
	if len(tp.vertices) != 100 {
		t.Fatalf("%d vertices", len(tp.vertices))
	}
}

func BenchmarkDelay(b *testing.B) {
	tp := NewIPFSLike(8, 10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Delay(i%10000, (i*7)%10000)
	}
}

// rttStats summarizes the RTT distribution over a random sample of pairs.
type rttStats struct {
	Min, Max, Mean time.Duration
}

// sampleStats estimates min/max/mean RTT over pairs random vertex pairs.
func sampleStats(t *Topology, pairs int, seed int64) rttStats {
	rng := rand.New(rand.NewSource(seed))
	n := len(t.vertices)
	var s rttStats
	s.Min = time.Hour
	var sum time.Duration
	for i := 0; i < pairs; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		rtt := t.RTT(a, b)
		if rtt < s.Min {
			s.Min = rtt
		}
		if rtt > s.Max {
			s.Max = rtt
		}
		sum += rtt
	}
	s.Mean = sum / time.Duration(pairs)
	return s
}
