// Package ids provides node identities for the PANDAS network: ed25519
// key pairs and 32-byte node IDs derived by hashing the public key.
//
// As in Ethereum, a node is identified by the hash of its public key; the
// association between nodes and validators is never exposed. Contact
// information is an index-ordered address table from whoever deploys the
// nodes (the swarm supervisor's config, or pandas-node -peers), not signed
// records.
package ids

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
)

// IDSize is the size of a NodeID in bytes.
const IDSize = 32

// NodeID uniquely identifies a node: the SHA-256 hash of its public key.
type NodeID [IDSize]byte

// String returns a short hex prefix for logs.
func (id NodeID) String() string { return hex.EncodeToString(id[:6]) }

// XOR returns the Kademlia distance metric between two IDs.
func (id NodeID) XOR(other NodeID) NodeID {
	var out NodeID
	for i := range id {
		out[i] = id[i] ^ other[i]
	}
	return out
}

// Less compares IDs as big-endian integers; used to order XOR distances.
func (id NodeID) Less(other NodeID) bool {
	for i := range id {
		if id[i] != other[i] {
			return id[i] < other[i]
		}
	}
	return false
}

// LeadingZeros returns the number of leading zero bits, which determines
// the Kademlia bucket index.
func (id NodeID) LeadingZeros() int {
	for i, b := range id {
		if b != 0 {
			n := 0
			for mask := byte(0x80); mask != 0; mask >>= 1 {
				if b&mask != 0 {
					return i*8 + n
				}
				n++
			}
		}
	}
	return IDSize * 8
}

// Identity is a node's key pair and derived ID.
type Identity struct {
	ID      NodeID
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// NewTestIdentity generates a deterministic identity from a seed; intended
// for simulations and tests where reproducibility matters more than
// secrecy.
func NewTestIdentity(seed int64) *Identity {
	pub, priv, err := ed25519.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		// ed25519 generation from a non-failing reader cannot fail.
		panic(fmt.Sprintf("ids: test identity: %v", err))
	}
	return &Identity{ID: IDFromPublicKey(pub), Public: pub, private: priv}
}

// testIDCache interns NewTestIdentityCached results. Identities are
// immutable after construction, so sharing one *Identity across clusters
// is safe (including concurrently — sweeps run clusters in parallel).
var testIDCache sync.Map // int64 -> *Identity

// NewTestIdentityCached is NewTestIdentity behind a process-wide cache:
// the same seed always yields the same identity, so large simulations
// that rebuild clusters point after point skip the ~50µs ed25519 keygen
// per node — at 100k nodes that is seconds per cluster construction.
func NewTestIdentityCached(seed int64) *Identity {
	if v, ok := testIDCache.Load(seed); ok {
		return v.(*Identity)
	}
	v, _ := testIDCache.LoadOrStore(seed, NewTestIdentity(seed))
	return v.(*Identity)
}

// IDFromPublicKey derives the node ID from a public key.
func IDFromPublicKey(pub ed25519.PublicKey) NodeID {
	return sha256.Sum256(pub)
}

// Sign signs an arbitrary message with the identity's private key.
func (id *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.private, msg)
}

// VerifyFrom verifies that sig is a valid signature of msg under pub.
func VerifyFrom(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}
