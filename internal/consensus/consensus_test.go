package consensus

import (
	"testing"
	"time"
)

func TestRandaoSeedsDifferPerEpoch(t *testing.T) {
	r := NewRandao([32]byte{1})
	s1 := r.SeedFor(1)
	s2 := r.SeedFor(2)
	s1b := r.SeedFor(1)
	if s1 == s2 {
		t.Fatal("consecutive epochs share a seed")
	}
	if s1 != s1b {
		t.Fatal("seed not deterministic")
	}
	r2 := NewRandao([32]byte{2})
	if r2.SeedFor(1) == s1 {
		t.Fatal("different entropy produced equal seed")
	}
}

func TestPhaseDurationIsFourSeconds(t *testing.T) {
	if PhaseDuration != 4*time.Second {
		t.Fatalf("PhaseDuration = %v", PhaseDuration)
	}
}
