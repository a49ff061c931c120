package prf

import (
	"crypto/sha512"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

// marshalableHash is the stdlib SHA-512 digest's real capability set:
// its state can be snapshotted and restored, which is what lets one
// Hasher amortize the HMAC key schedule across any number of
// evaluations without re-hashing the key blocks.
type marshalableHash interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// Hasher is a reusable HMAC-SHA-512 evaluator. Keying it once absorbs
// the inner and outer key blocks and snapshots both digest states;
// every Eval then restores the snapshots instead of recomputing them,
// so steady-state evaluation performs no heap allocation and roughly
// half the hashing work of a fresh crypto/hmac instance.
//
// All scratch space lives inside the Hasher (inputs are staged through
// its own label buffer) so that no caller-side buffer escapes through
// the hash.Hash interface. A Hasher is not safe for concurrent use;
// pool instances with GetHasher/PutHasher.
type Hasher struct {
	inner, outer marshalableHash
	istate       []byte // inner digest state after absorbing k XOR ipad
	ostate       []byte // outer digest state after absorbing k XOR opad
	pad          [sha512.BlockSize]byte
	lbuf         []byte // staging for labels / small inputs
	sum          []byte // HMAC output scratch (inner then outer digest)
}

// NewHasher returns a Hasher keyed with k.
func NewHasher(k Key) *Hasher {
	h := &Hasher{
		inner: sha512.New().(marshalableHash),
		outer: sha512.New().(marshalableHash),
		lbuf:  make([]byte, 0, 64),
		sum:   make([]byte, 0, sha512.Size),
	}
	h.SetKey(k)
	return h
}

// SetKey rekeys the Hasher: the HMAC key blocks are absorbed once and
// both digest states snapshotted for reuse by subsequent evaluations.
func (h *Hasher) SetKey(k Key) {
	for i := range h.pad {
		h.pad[i] = 0x36
	}
	for i, b := range k {
		h.pad[i] ^= b
	}
	h.inner.Reset()
	h.inner.Write(h.pad[:])
	for i := range h.pad {
		h.pad[i] ^= 0x36 ^ 0x5c
	}
	h.outer.Reset()
	h.outer.Write(h.pad[:])
	var err error
	if h.istate, err = h.inner.AppendBinary(h.istate[:0]); err != nil {
		panic("prf: snapshot sha512 state: " + err.Error())
	}
	if h.ostate, err = h.outer.AppendBinary(h.ostate[:0]); err != nil {
		panic("prf: snapshot sha512 state: " + err.Error())
	}
}

// Eval computes PRF_k(data) = HMAC-SHA-512(k, data) truncated to 32
// bytes, allocation-free. data may alias h's own label buffer (the
// Eval* helpers rely on this).
func (h *Hasher) Eval(data []byte) [KeySize]byte {
	if err := h.inner.UnmarshalBinary(h.istate); err != nil {
		panic("prf: restore sha512 state: " + err.Error())
	}
	h.inner.Write(data)
	h.sum = h.inner.Sum(h.sum[:0])
	if err := h.outer.UnmarshalBinary(h.ostate); err != nil {
		panic("prf: restore sha512 state: " + err.Error())
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

// snapshotMax bounds a marshaled SHA-512 digest state (204 bytes in
// the current runtime, with headroom for format growth). Fixed-size
// storage keeps a Snapshot a plain value: embedding one in a cache
// entry costs no extra heap object.
const snapshotMax = 256

// Snapshot captures the Hasher's keyed state as an immutable value:
// restoring it later costs two small copies instead of a key schedule.
// Snapshots are what the derived-state caches store — they are safe to
// share across goroutines because Restore only reads them.
type Snapshot struct {
	ni, no   int
	ist, ost [snapshotMax]byte
}

// Valid reports whether s holds a captured state.
func (s *Snapshot) Valid() bool { return s.ni > 0 }

// Snapshot returns the current keyed state as a self-contained value.
func (h *Hasher) Snapshot() Snapshot {
	var s Snapshot
	if len(h.istate) > snapshotMax || len(h.ostate) > snapshotMax {
		panic("prf: sha512 state exceeds snapshot bound")
	}
	s.ni = copy(s.ist[:], h.istate)
	s.no = copy(s.ost[:], h.ostate)
	return s
}

// Restore rekeys the Hasher from a Snapshot without touching the key
// schedule: equivalent to the SetKey that produced the snapshot, at
// memcpy cost. Allocation-free in steady state.
func (h *Hasher) Restore(s *Snapshot) {
	h.istate = append(h.istate[:0], s.ist[:s.ni]...)
	h.ostate = append(h.ostate[:0], s.ost[:s.no]...)
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

var hasherPool = sync.Pool{New: func() any {
	return &Hasher{
		inner: sha512.New().(marshalableHash),
		outer: sha512.New().(marshalableHash),
		lbuf:  make([]byte, 0, 64),
		sum:   make([]byte, 0, sha512.Size),
	}
}}

// GetHasher returns a pooled Hasher keyed with k. Return it with
// PutHasher when done; key material is overwritten by the next SetKey,
// and rekeying a pooled instance costs one key-block absorption but no
// allocation.
func GetHasher(k Key) *Hasher {
	h := hasherPool.Get().(*Hasher)
	h.SetKey(k)
	return h
}

// PutHasher returns h to the pool.
func PutHasher(h *Hasher) { hasherPool.Put(h) }
