package core

import (
	"encoding/binary"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
)

// Keyword stags. Every stag the owner derives for a cover node — at build,
// for one query, for a batch plan, for SRC-i's second round and in
// TrapdoorCost — comes from a stagger: the owner key of the index section
// (kSSE, or kSSE2 for SRC-i's position index) and the PRF suite of the
// index the stags are for. Build passes the suite it writes, a query the
// suite the index's Meta reports, so build and query agree by
// construction and an owner answers from indexes of every suite.
//
//   - Suites 2 and 3: F(k, n.Level, n.Start) — F over the node's 9-byte
//     label, one SHA-256 compression with no key schedule.
//   - Suites 0 and 1: HMAC-SHA-512(k, label), the paper's PRF and what
//     every index of those suites was built with (the owner's keyword PRF
//     never followed suite 1), keyed once per stagger.
//
// Quadratic's keyword is a range, two 64-bit bounds, not a node label:
// its stag is HMAC-SHA-512 of the 16-byte keyword under every suite
// (rangeStag), so it takes no suite at all.
type stagger struct {
	key prf.Key
	h   *prf.Hasher // keyed HMAC-SHA-512 for suites 0 and 1; nil under F
}

// newStagger keys a stagger for an index of the given suite. Release it
// when done.
func newStagger(suite prf.Suite, key prf.Key) stagger {
	if suite.UsesF() {
		return stagger{key: key}
	}
	return stagger{key: key, h: prf.GetHasher(key)}
}

// node returns the stag of a cover node's keyword.
func (s *stagger) node(n cover.Node) sse.Stag {
	if s.h == nil {
		return sse.Stag(prf.F(s.key, n.Level, n.Start))
	}
	return sse.Stag(s.h.EvalByteUint64(n.Level, n.Start))
}

// release returns the stagger's pooled hasher.
func (s *stagger) release() {
	if s.h != nil {
		prf.PutHasher(s.h)
	}
}

// rangeStag returns the stag of Quadratic's keyword for subrange q, its
// two bounds big-endian, under h, a hasher keyed with kSSE by
// prf.GetHasher.
func rangeStag(h *prf.Hasher, q Range) sse.Stag {
	var kw [16]byte
	binary.BigEndian.PutUint64(kw[:8], q.Lo)
	binary.BigEndian.PutUint64(kw[8:], q.Hi)
	return sse.Stag(h.EvalString(string(kw[:])))
}
