package prf

import (
	"bytes"
	"crypto/sha256"
	"crypto/sha512"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

// marshalableHash is the stdlib SHA-2 digests' real capability set:
// their state can be snapshotted and restored, which is what lets one
// Hasher amortize the HMAC key schedule across any number of
// evaluations without re-hashing the key blocks.
type marshalableHash interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// suiteHash is what a Hasher needs to know about a suite's hash: how to
// make one, its block size (the HMAC pad length) and the size of its
// chaining value (the only part of a digest's marshaled state that
// depends on the key once exactly one block has been absorbed).
type suiteHash struct {
	new       func() hash.Hash
	block, cv int
}

// suiteHashes has a row per suite. Suites 2 and 3 differ from suite 1
// only in their fixed-length PRF, F, which is all an index evaluates
// under them; their Hasher is suite 1's.
var suiteHashes = [NumSuites]suiteHash{
	SuiteSHA512:   {sha512.New, sha512.BlockSize, sha512.Size},
	SuiteSHA256:   {sha256.New, sha256.BlockSize, sha256.Size},
	SuiteBlock:    {sha256.New, sha256.BlockSize, sha256.Size},
	SuiteBlockPad: {sha256.New, sha256.BlockSize, sha256.Size},
}

// stateCV is where the chaining value sits in a stdlib SHA-2 digest's
// marshaled state: magic(4) ‖ chaining value ‖ block buffer ‖ length(8).
// init checks the layout against AppendBinary.
const stateCV = 4

// Hasher is a reusable HMAC evaluator over one suite's hash. Keying it
// once absorbs the inner and outer key blocks and snapshots both digest
// states; every Eval then restores the snapshots instead of recomputing
// them, so steady-state evaluation performs no heap allocation and
// roughly half the hashing work of a fresh crypto/hmac instance.
//
// All scratch space lives inside the Hasher (inputs are staged through
// its own label buffer) so that no caller-side buffer escapes through
// the hash.Hash interface. A Hasher is not safe for concurrent use;
// pool instances with GetHasher/PutHasher.
type Hasher struct {
	suite        Suite
	block, cv    int
	inner, outer marshalableHash
	istate       []byte // inner digest state after absorbing k XOR ipad
	ostate       []byte // outer digest state after absorbing k XOR opad
	pad          [sha512.BlockSize]byte
	lbuf         []byte // staging for labels / small inputs
	sum          []byte // HMAC output scratch (inner then outer digest)
}

// NewHasher returns a suite-0 (HMAC-SHA-512) Hasher keyed with k.
func NewHasher(k Key) *Hasher { return NewHasherSuite(SuiteSHA512, k) }

// NewHasherSuite returns a Hasher over suite s keyed with k. s must be
// Valid: suites arriving from outside are checked where they are parsed.
func NewHasherSuite(s Suite, k Key) *Hasher {
	sh := suiteHashes[s]
	h := &Hasher{
		suite: s,
		block: sh.block,
		cv:    sh.cv,
		inner: sh.new().(marshalableHash),
		outer: sh.new().(marshalableHash),
		lbuf:  make([]byte, 0, 64),
		sum:   make([]byte, 0, sha512.Size),
	}
	h.SetKey(k)
	return h
}

// SetKey rekeys the Hasher: the HMAC key blocks are absorbed once and
// both digest states snapshotted for reuse by subsequent evaluations.
func (h *Hasher) SetKey(k Key) {
	pad := h.pad[:h.block]
	for i := range pad {
		pad[i] = 0x36
	}
	for i, b := range k {
		pad[i] ^= b
	}
	h.inner.Reset()
	h.inner.Write(pad)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	h.outer.Reset()
	h.outer.Write(pad)
	var err error
	if h.istate, err = h.inner.AppendBinary(h.istate[:0]); err != nil {
		panic("prf: snapshot digest state: " + err.Error())
	}
	if h.ostate, err = h.outer.AppendBinary(h.ostate[:0]); err != nil {
		panic("prf: snapshot digest state: " + err.Error())
	}
}

// Eval computes PRF_k(data) = HMAC(k, data) under the Hasher's suite,
// truncated to 32 bytes, allocation-free. data may alias h's own label
// buffer (the Eval* helpers rely on this).
func (h *Hasher) Eval(data []byte) [KeySize]byte {
	if err := h.inner.UnmarshalBinary(h.istate); err != nil {
		panic("prf: restore digest state: " + err.Error())
	}
	h.inner.Write(data)
	h.sum = h.inner.Sum(h.sum[:0])
	if err := h.outer.UnmarshalBinary(h.ostate); err != nil {
		panic("prf: restore digest state: " + err.Error())
	}
	h.outer.Write(h.sum)
	h.sum = h.outer.Sum(h.sum[:0])
	var out [KeySize]byte
	copy(out[:], h.sum)
	return out
}

// EvalString is Eval on the bytes of s, staged through the Hasher's own
// buffer so no []byte(s) copy is heap-allocated.
func (h *Hasher) EvalString(s string) [KeySize]byte {
	h.lbuf = append(h.lbuf[:0], s...)
	return h.Eval(h.lbuf)
}

// EvalUint64 evaluates the PRF on the 8-byte big-endian encoding of v.
func (h *Hasher) EvalUint64(v uint64) [KeySize]byte {
	h.lbuf = binary.BigEndian.AppendUint64(h.lbuf[:0], v)
	return h.Eval(h.lbuf)
}

// EvalByteUint64 evaluates the PRF on the 9-byte input b || BE(v) — the
// wire form of a dyadic-node label (level byte, then start position) —
// without materializing the label as a string.
func (h *Hasher) EvalByteUint64(b byte, v uint64) [KeySize]byte {
	h.lbuf = append(h.lbuf[:0], b)
	h.lbuf = binary.BigEndian.AppendUint64(h.lbuf, v)
	return h.Eval(h.lbuf)
}

// Snapshot captures the Hasher's keyed state as an immutable value:
// restoring it later costs two small copies instead of a key schedule.
// Snapshots are what the derived-state caches store — they are safe to
// share across goroutines because Restore only reads them.
//
// A keyed state is two digests that have each absorbed exactly one
// block, so all that distinguishes one key's marshaled states from
// another's is the two chaining values: a Snapshot holds just those
// (64 bytes each at most) and Restore writes them back into the
// Hasher's own marshaled states, whose other bytes are the same for
// every key.
type Snapshot struct {
	n        uint8 // chaining-value length: the suite's, 0 = nothing captured
	ist, ost [sha512.Size]byte
}

// Valid reports whether s holds a captured state.
func (s *Snapshot) Valid() bool { return s.n > 0 }

// Snapshot returns the current keyed state as a self-contained value.
func (h *Hasher) Snapshot() Snapshot {
	s := Snapshot{n: uint8(h.cv)}
	copy(s.ist[:], h.istate[stateCV:stateCV+h.cv])
	copy(s.ost[:], h.ostate[stateCV:stateCV+h.cv])
	return s
}

// Restore rekeys the Hasher from a Snapshot of the same suite without
// touching the key schedule: equivalent to the SetKey that produced the
// snapshot, at memcpy cost. Allocation-free.
func (h *Hasher) Restore(s *Snapshot) {
	if int(s.n) != h.cv {
		panic("prf: snapshot restored into a hasher of another suite")
	}
	copy(h.istate[stateCV:], s.ist[:h.cv])
	copy(h.ostate[stateCV:], s.ost[:h.cv])
}

// init checks what Snapshot assumes about the stdlib's marshaled digest
// states, so a layout change fails at start-up instead of evaluating a
// wrong PRF: a state that absorbed one block is magic ‖ chaining value ‖
// empty block buffer ‖ length, and differs between two keys only in the
// chaining value.
func init() {
	for s := Suite(0); s < NumSuites; s++ {
		var k1, k2 Key
		k1[0], k2[0] = 1, 2
		h1, h2 := NewHasherSuite(s, k1), NewHasherSuite(s, k2)
		snap := h1.Snapshot()
		h2.Restore(&snap)
		if len(h1.istate) != stateCV+h1.cv+h1.block+8 ||
			!bytes.Equal(h1.istate, h2.istate) || !bytes.Equal(h1.ostate, h2.ostate) {
			panic("prf: " + s.String() + ": marshaled digest state is not magic ‖ chaining value ‖ buffer ‖ length")
		}
	}
}

// Derive is the labelled KDF of package function Derive, evaluated
// under the Hasher's current key.
func (h *Hasher) Derive(label string) Key {
	h.lbuf = append(h.lbuf[:0], kdfPrefix...)
	h.lbuf = append(h.lbuf, label...)
	return Key(h.Eval(h.lbuf))
}

// DeriveN is the indexed labelled KDF of package function DeriveN,
// evaluated under the Hasher's current key.
func (h *Hasher) DeriveN(label string, n uint64) Key {
	h.lbuf = append(h.lbuf[:0], kdfPrefix...)
	h.lbuf = append(h.lbuf, label...)
	h.lbuf = append(h.lbuf, '/')
	h.lbuf = binary.BigEndian.AppendUint64(h.lbuf, n)
	return Key(h.Eval(h.lbuf))
}

const kdfPrefix = "rsse/kdf/"

// hasherPools holds one pool per suite: a pooled Hasher's digests are of
// one hash for life.
var hasherPools [NumSuites]sync.Pool

// GetHasher returns a pooled suite-0 Hasher keyed with k. Return it
// with PutHasher when done; key material is overwritten by the next
// SetKey, and rekeying a pooled instance costs one key-block absorption
// but no allocation.
func GetHasher(k Key) *Hasher { return GetHasherSuite(SuiteSHA512, k) }

// GetHasherSuite is GetHasher over suite s.
func GetHasherSuite(s Suite, k Key) *Hasher {
	if h, ok := hasherPools[s].Get().(*Hasher); ok {
		h.SetKey(k)
		return h
	}
	return NewHasherSuite(s, k)
}

// PutHasher returns h to its suite's pool.
func PutHasher(h *Hasher) { hasherPools[h.suite].Put(h) }
