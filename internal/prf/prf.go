// Package prf provides the pseudorandom function and key-derivation
// primitives shared by every scheme in the module.
//
// Following the paper's implementation choices (Section 8), PRF values are
// computed with HMAC-SHA-512 and truncated to 32 bytes. Keys are 32-byte
// random strings. A small labelled-KDF derives independent subkeys from a
// master key so that each index, epoch and purpose uses its own key.
//
// Which hash sits under the HMAC is a Suite: suite 0 is the paper's
// HMAC-SHA-512, suite 1 is HMAC-SHA-256 with the same keys, labels and
// 32-byte outputs; suite 2 drops the HMAC for F, one SHA-256 compression
// keyed through the message. On amd64 with SHA extensions (checked once
// with CPUID) F is that one compression in Go assembly, fed the key and
// the message words directly, and F2 runs two of them interleaved for
// the GGM step; every other machine computes F as sha256.Sum256 of the
// 41-byte message on the stack. Suite 3 is suite 2 with its index cells
// padded from F instead of AES-CTR (package sse); Suite.UsesF is true of
// both. The package-level functions and NewHasher/GetHasher are suite 0,
// which is what the owner's key derivation (master key to purpose keys)
// always uses. An index records the suite its own PRFs were built with
// (see Suite), and the owner's keyword stags follow it: F for an index
// of suite 2 or 3, the suite-0 HMAC for one of suite 0 or 1.
package prf

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
)

// KeySize is the size in bytes of PRF keys and outputs.
const KeySize = 32

// Key is a 32-byte PRF key.
type Key [KeySize]byte

// Suite names the hash under an index's PRFs: the GGM tree, the stag key
// schedule and the cell labels. It is data, not configuration — the
// builder writes it into the index header and every reader takes it from
// there — so an index stays readable by the suite that built it forever.
// Every suite takes 32-byte keys and gives 32-byte outputs; the server's
// view (tokens, labels, probes) has the same shape under each.
type Suite uint8

const (
	// SuiteSHA512 is HMAC-SHA-512 truncated to 32 bytes, the paper's
	// Section 8 choice and what every index without a suite byte is.
	SuiteSHA512 Suite = 0
	// SuiteSHA256 is HMAC-SHA-256: the same construction over a hash
	// whose native output is already 32 bytes, a third of the cost per
	// compression where the CPU has SHA extensions.
	SuiteSHA256 Suite = 1
	// SuiteBlock is F: SHA-256 of one fixed-length block holding the key,
	// a use tag and a counter. It has no key schedule, so a key used once
	// — a GGM seed, the stag of an empty leaf — costs one compression.
	SuiteBlock Suite = 2
	// SuiteBlockPad is SuiteBlock in every PRF — labels, keys, GGM steps,
	// keyword stags — with the index's cells padded from F instead of
	// encrypted under AES-CTR, so a search hit runs no AES key schedule.
	SuiteBlockPad Suite = 3

	// NumSuites sizes every per-suite table, here and where state is
	// pooled per suite.
	NumSuites = 4
)

// Valid reports whether s names a suite this build implements.
func (s Suite) Valid() bool { return s < NumSuites }

// UsesF reports whether s's labels and keys come from F: suites 2 and
// 3, which differ only in how an index pads its cells.
func (s Suite) UsesF() bool { return s == SuiteBlock || s == SuiteBlockPad }

// Suites lists every suite this build implements, in order.
func Suites() []Suite {
	all := make([]Suite, NumSuites)
	for i := range all {
		all[i] = Suite(i)
	}
	return all
}

// F is suite 2's PRF: SHA-256(k ‖ tag ‖ BE64(x)), a 41-byte message that
// pads to exactly one block, so one compression under the fixed IV with
// no state to set up, keep or restore. tag separates the uses one key is
// put to; every input has the same length, so no message extends another.
//
// On amd64 with SHA extensions that one block goes straight to the
// SHA-NI rounds (compress); everywhere else F is sha256.Sum256 of the
// message, which stays the definition F is tested against.
func F(k Key, tag byte, x uint64) (out [KeySize]byte) {
	if useSHANI {
		lo, hi := words(tag, x)
		compress(&out, &k, lo, hi)
		return out
	}
	var m [fLen]byte
	copy(m[:], k[:])
	m[KeySize] = tag
	binary.BigEndian.PutUint64(m[KeySize+1:], x)
	return sha256.Sum256(m[:])
}

// F2 sets *out0 = F(*k0, tag0, x0) and *out1 = F(*k1, tag1, x1). Under
// SHA-NI the two compressions run interleaved, at well under twice the
// cost of one. Both keys are read before either output is written, so
// an output may alias either key.
func F2(out0, out1 *[KeySize]byte, k0 *Key, tag0 byte, x0 uint64, k1 *Key, tag1 byte, x1 uint64) {
	if useSHANI {
		lo0, hi0 := words(tag0, x0)
		lo1, hi1 := words(tag1, x1)
		compress2(out0, out1, k0, k1, lo0, hi0, lo1, hi1)
		return
	}
	v0, v1 := F(*k0, tag0, x0), F(*k1, tag1, x1)
	*out0, *out1 = v0, v1
}

// FImpl names the code computing F on this machine: "sha-ni" or
// "portable".
func FImpl() string {
	if useSHANI {
		return "sha-ni"
	}
	return "portable"
}

// fLen is the length of F's message k ‖ tag ‖ BE64(x).
const fLen = KeySize + 1 + 8

// words returns words 8..11 of F's padded block — bytes 32..47, tag ‖
// BE64(x) ‖ 0x80 ‖ three zeros — as the message schedule reads them:
// big-endian 32-bit words, two to a uint64, the lower-numbered word in
// the low half. Words 0..7 are the key and words 12..15 the rest of the
// padding, the same for every input.
func words(tag byte, x uint64) (lo, hi uint64) {
	w8 := uint64(tag)<<24 | x>>40
	w9 := x >> 8 & 0xffffffff
	w10 := (x&0xff)<<24 | 0x80<<16
	return w8 | w9<<32, w10
}

// String names the suite's PRF.
func (s Suite) String() string {
	switch s {
	case SuiteSHA512:
		return "hmac-sha512"
	case SuiteSHA256:
		return "hmac-sha256"
	case SuiteBlock:
		return "sha256-block"
	case SuiteBlockPad:
		return "sha256-block-pad"
	default:
		return fmt.Sprintf("Suite(%d)", uint8(s))
	}
}

// NewKey draws a fresh random key from r (crypto/rand.Reader if r is nil).
func NewKey(r io.Reader) (Key, error) {
	if r == nil {
		r = rand.Reader
	}
	var k Key
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return Key{}, fmt.Errorf("prf: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies b into a Key. It returns an error unless len(b) == KeySize.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("prf: key must be %d bytes, got %d", KeySize, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// Eval computes PRF_k(data) = HMAC-SHA-512(k, data) truncated to 32 bytes.
// One-shot convenience over a pooled Hasher; code evaluating many inputs
// under one key should hold a Hasher directly.
func Eval(k Key, data []byte) [KeySize]byte {
	h := GetHasher(k)
	out := h.Eval(data)
	PutHasher(h)
	return out
}

// EvalString is Eval on the bytes of s, without heap-copying s.
func EvalString(k Key, s string) [KeySize]byte {
	h := GetHasher(k)
	out := h.EvalString(s)
	PutHasher(h)
	return out
}

// EvalUint64 evaluates the PRF on the 8-byte big-endian encoding of v.
func EvalUint64(k Key, v uint64) [KeySize]byte {
	h := GetHasher(k)
	out := h.EvalUint64(v)
	PutHasher(h)
	return out
}

// Derive derives an independent subkey from k for the given label. Distinct
// labels yield computationally independent keys.
func Derive(k Key, label string) Key {
	h := GetHasher(k)
	out := h.Derive(label)
	PutHasher(h)
	return out
}

// DeriveN derives an independent subkey bound to both a label and an index,
// e.g. one key per update batch.
func DeriveN(k Key, label string, n uint64) Key {
	h := GetHasher(k)
	out := h.DeriveN(label, n)
	PutHasher(h)
	return out
}

// Equal reports whether two PRF outputs are equal in constant time.
func Equal(a, b [KeySize]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}
