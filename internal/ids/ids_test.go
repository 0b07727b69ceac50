package ids

import (
	"testing"
	"testing/quick"
)

func TestTestIdentityDeterministic(t *testing.T) {
	a := NewTestIdentity(7)
	b := NewTestIdentity(7)
	c := NewTestIdentity(8)
	if a.ID != b.ID {
		t.Fatal("same seed produced different identities")
	}
	if a.ID == c.ID {
		t.Fatal("different seeds produced equal identities")
	}
}

func TestNewIdentityDerivesID(t *testing.T) {
	id := NewTestIdentity(3)
	if id.ID != IDFromPublicKey(id.Public) {
		t.Fatal("ID does not match public key hash")
	}
	if id.ID == (NodeID{}) {
		t.Fatal("ID is zero")
	}
}

func TestSignVerify(t *testing.T) {
	id := NewTestIdentity(1)
	msg := []byte("pandas seeding message")
	sig := id.Sign(msg)
	if !VerifyFrom(id.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if VerifyFrom(id.Public, append(msg, 'x'), sig) {
		t.Fatal("tampered message accepted")
	}
	other := NewTestIdentity(2)
	if VerifyFrom(other.Public, msg, sig) {
		t.Fatal("wrong key accepted")
	}
	if VerifyFrom(nil, msg, sig) {
		t.Fatal("nil key accepted")
	}
}

func TestXORProperties(t *testing.T) {
	f := func(a, b NodeID) bool {
		// Symmetric, self-distance zero, and a^b^b == a.
		return a.XOR(b) == b.XOR(a) &&
			a.XOR(a) == NodeID{} &&
			a.XOR(b).XOR(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLessIsStrictOrder(t *testing.T) {
	a := NodeID{0x01}
	b := NodeID{0x02}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Fatal("Less ordering wrong")
	}
}

func TestLeadingZeros(t *testing.T) {
	cases := []struct {
		id   NodeID
		want int
	}{
		{NodeID{}, 256},
		{NodeID{0x80}, 0},
		{NodeID{0x40}, 1},
		{NodeID{0x01}, 7},
		{NodeID{0x00, 0x80}, 8},
		{NodeID{0x00, 0x00, 0x01}, 23},
	}
	for _, c := range cases {
		if got := c.id.LeadingZeros(); got != c.want {
			t.Errorf("LeadingZeros(%v) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestNodeIDStrings(t *testing.T) {
	id := NodeID{0xAB, 0xCD}
	if id.String() != "abcd00000000" {
		t.Fatalf("String = %q", id.String())
	}
}

// TestNewTestIdentityCached checks the interned constructor returns the
// same identity as the uncached one and a stable pointer per seed.
func TestNewTestIdentityCached(t *testing.T) {
	a := NewTestIdentityCached(1234)
	b := NewTestIdentityCached(1234)
	if a != b {
		t.Fatal("cache returned distinct pointers for one seed")
	}
	if fresh := NewTestIdentity(1234); fresh.ID != a.ID {
		t.Fatalf("cached ID %v != fresh ID %v", a.ID, fresh.ID)
	}
	if other := NewTestIdentityCached(1235); other.ID == a.ID {
		t.Fatal("distinct seeds collided")
	}
}
