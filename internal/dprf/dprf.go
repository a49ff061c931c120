// Package dprf implements the Delegatable Pseudorandom Function of
// Kiayias et al. [24] on the GGM tree, as used by the Constant-BRC and
// Constant-URC schemes (Section 5 of the paper).
//
// The GGM pseudorandom generator G maps a 32-byte seed to two 32-byte
// outputs G0, G1; following the paper's implementation notes (Section 8)
// it is realized with HMAC-SHA-512, whose 64-byte output is split in half.
// That is PRF suite 0; under suite 1 (see prf.Suite) G is two
// HMAC-SHA-256 evaluations under the seed, one per half, and under
// suites 2 and 3 two single SHA-256 compressions, G(s) = F(s,'g',0) ‖
// F(s,'g',1) with prf.F. A key carries its suite, and so does the
// Expander that evaluates its tokens; the token itself — level and GGM
// value — is the same 33 bytes under every suite.
// The DPRF value of an L-bit domain value a_{L-1}...a_0 under key k is
//
//	f_k(a) = G_{a_0}( ... G_{a_{L-1}}(k) ... )
//
// i.e. a walk from the GGM-tree root along the bits of a, most significant
// first. A GGM value for an internal node (paired with its level) lets an
// untrusted party derive every leaf DPRF value in the node's subtree but
// nothing outside it. The token-generation function T emits the GGM values
// for the BRC or URC cover of a range; the expansion function C derives
// the leaf values.
package dprf

import (
	"crypto/rand"
	"fmt"
	"io"

	"rsse/internal/cover"
	"rsse/internal/prf"
)

// Size is the byte length of GGM seeds and DPRF outputs.
const Size = 32

// Value is a GGM seed or DPRF output.
type Value [Size]byte

// Key is a DPRF secret key (the GGM root seed).
type Key struct {
	seed  Value
	bits  uint8 // domain height L
	suite prf.Suite
}

// TokenSize is the serialized size of one delegation token:
// one level byte plus the GGM value.
const TokenSize = 1 + Size

// Token delegates evaluation over one subtree: the GGM value of the node
// and the node's level (needed by the receiver to know how far to expand).
// Per Section 5, tokens deliberately omit the node position.
type Token struct {
	Level uint8
	Value Value
}

// NewKey draws a fresh DPRF key for an L-bit domain from r
// (crypto/rand.Reader if nil).
func NewKey(d cover.Domain, r io.Reader) (Key, error) {
	if r == nil {
		r = rand.Reader
	}
	var k Key
	k.bits = d.Bits
	if _, err := io.ReadFull(r, k.seed[:]); err != nil {
		return Key{}, fmt.Errorf("dprf: generating key: %w", err)
	}
	return k, nil
}

// KeyFromSeed builds a suite-0 DPRF key from an existing 32-byte seed,
// e.g. one derived from a master key.
func KeyFromSeed(d cover.Domain, seed [Size]byte) Key {
	return Key{seed: seed, bits: d.Bits}
}

// WithSuite returns the key over the same seed and domain whose GGM
// tree is built with suite s: an owner holds one seed and evaluates it
// under the suite of the index it is talking to.
func (k Key) WithSuite(s prf.Suite) Key {
	k.suite = s
	return k
}

// Bits returns the domain height the key was generated for.
func (k Key) Bits() uint8 { return k.bits }

// Eval computes the leaf DPRF value f_k(a). a must lie in the key's domain.
func (k Key) Eval(a uint64) (Value, error) {
	e := GetExpanderSuite(k.suite)
	v, err := e.Eval(k, a)
	PutExpander(e)
	return v, err
}

// NodeToken computes the delegation token for one dyadic node: the GGM
// value at the node's position in the tree. The node must be aligned
// (binary-tree node) and fit the domain.
func (k Key) NodeToken(n cover.Node) (Token, error) {
	e := GetExpanderSuite(k.suite)
	t, err := e.NodeToken(k, n)
	PutExpander(e)
	return t, err
}

// Delegate implements the token-generation function T of the DPRF: it
// covers [lo, hi] with BRC or URC and returns one token per covering node.
// The caller is expected to randomly permute the tokens before sending
// them (the Trpdr algorithms of Section 5 do so).
func (k Key) Delegate(lo, hi uint64, tech cover.Technique) ([]Token, error) {
	d := cover.Domain{Bits: k.bits}
	nodes, err := cover.Cover(d, lo, hi, tech)
	if err != nil {
		return nil, err
	}
	e := GetExpanderSuite(k.suite)
	out, err := e.DelegateNodes(make([]Token, 0, len(nodes)), k, nodes)
	PutExpander(e)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Expand implements the derivation function C: given a token it computes
// the 2^Level leaf DPRF values of the delegated subtree. Anyone holding
// the token can run it; no secret key is involved. Expand and ExpandInto
// evaluate suite 0; use an Expander for a token of another suite.
func Expand(t Token) []Value {
	return ExpandInto(make([]Value, 0, 1<<t.Level), t)
}

// ExpandInto appends the leaf values of t to dst and returns it, avoiding
// an allocation per token on the server's search path.
func ExpandInto(dst []Value, t Token) []Value {
	e := GetExpander()
	dst = e.ExpandInto(dst, t)
	PutExpander(e)
	return dst
}

// Marshal serializes a token (level byte followed by the GGM value).
func (t Token) Marshal() [TokenSize]byte {
	var b [TokenSize]byte
	b[0] = t.Level
	copy(b[1:], t.Value[:])
	return b
}

// TokenFromBytes parses a serialized token.
func TokenFromBytes(b [TokenSize]byte) Token {
	var t Token
	t.Level = b[0]
	copy(t.Value[:], b[1:])
	return t
}
