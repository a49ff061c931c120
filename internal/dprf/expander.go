package dprf

import (
	"crypto/sha512"
	"fmt"
	"hash"
	"math/bits"
	"slices"
	"sync"

	"rsse/internal/cover"
	"rsse/internal/prf"
)

// The fixed HMAC messages of the GGM PRG: suite 0 splits one 64-byte
// output, suite 1 evaluates one 32-byte output per half (the G of suites
// 2 and 3 is prf.F under tag 'g' and has no message of its own).
// Package-level so writing them to the digest never copies a stack
// buffer to the heap.
var (
	ggmLabel  = []byte("rsse/ggm")
	ggmLabel0 = []byte("rsse/ggm/0")
	ggmLabel1 = []byte("rsse/ggm/1")
)

// Expander evaluates the GGM tree of one PRF suite without per-step
// heap allocation. The key (the seed) changes every step, so there is
// no key schedule to amortize across steps; what the Expander saves is
// the per-step hmac.New allocation and Sum buffer. All scratch lives in
// the Expander, so steady-state walks, expansions and delegations are
// allocation-free.
//
// An Expander is not safe for concurrent use; pool instances with
// GetExpander/PutExpander.
type Expander struct {
	suite  prf.Suite
	d      hash.Hash // suite 0: one SHA-512 digest reused for both HMAC passes
	blk    [sha512.BlockSize]byte
	sum    []byte      // 64-byte digest scratch
	h      *prf.Hasher // suite 1: rekeyed to the seed every step
	seeds  []Value     // path-seed stack for DelegateNodes prefix reuse
	leaves []Value     // retained expansion buffer for Leaves
}

// NewExpander returns a ready suite-0 Expander.
func NewExpander() *Expander { return NewExpanderSuite(prf.SuiteSHA512) }

// NewExpanderSuite returns a ready Expander for GGM trees of suite s,
// which must be Valid. The G of suites 2 and 3 keeps no state between
// steps.
func NewExpanderSuite(s prf.Suite) *Expander {
	e := &Expander{suite: s}
	switch s {
	case prf.SuiteSHA512:
		e.d, e.sum = sha512.New(), make([]byte, 0, sha512.Size)
	case prf.SuiteSHA256:
		e.h = prf.NewHasherSuite(s, prf.Key{})
	}
	return e
}

// expanderPools holds one pool per suite.
var expanderPools [prf.NumSuites]sync.Pool

// GetExpander returns a pooled suite-0 Expander; release it with
// PutExpander.
func GetExpander() *Expander { return GetExpanderSuite(prf.SuiteSHA512) }

// GetExpanderSuite is GetExpander for suite s.
func GetExpanderSuite(s prf.Suite) *Expander {
	if e, ok := expanderPools[s].Get().(*Expander); ok {
		return e
	}
	return NewExpanderSuite(s)
}

// PutExpander returns e to its suite's pool.
func PutExpander(e *Expander) { expanderPools[e.suite].Put(e) }

// g computes G(seed) into (g0, g1). g0 or g1 may alias seed: seed is
// fully absorbed before either output is written.
//
// Suites 2 and 3: F(seed,'g',0) and F(seed,'g',1) — two compressions,
// one prf.F2 call that runs them interleaved and writes g0 and g1 in
// place.
//
// Suite 1: HMAC-SHA-256(seed, "rsse/ggm/0") and HMAC-SHA-256(seed,
// "rsse/ggm/1") — one key schedule on the Hasher, whose keyed states
// both evaluations restore: six compressions, not eight.
//
// Suite 0: the two halves of HMAC-SHA-512(seed, "rsse/ggm"), a manual
// two-pass HMAC over one digest (a Hasher truncates to 32 bytes).
func (e *Expander) g(seed, g0, g1 *Value) {
	if e.suite.UsesF() {
		k := (*prf.Key)(seed)
		prf.F2((*[Size]byte)(g0), (*[Size]byte)(g1), k, 'g', 0, k, 'g', 1)
		return
	}
	if e.suite == prf.SuiteSHA256 {
		e.h.SetKey(prf.Key(*seed))
		*g0 = e.h.Eval(ggmLabel0)
		*g1 = e.h.Eval(ggmLabel1)
		return
	}
	for i := range e.blk {
		e.blk[i] = 0x36
	}
	for i, b := range seed {
		e.blk[i] ^= b
	}
	e.d.Reset()
	e.d.Write(e.blk[:])
	e.d.Write(ggmLabel)
	e.sum = e.d.Sum(e.sum[:0])
	for i := range e.blk {
		e.blk[i] ^= 0x36 ^ 0x5c
	}
	e.d.Reset()
	e.d.Write(e.blk[:])
	e.d.Write(e.sum)
	e.sum = e.d.Sum(e.sum[:0])
	copy(g0[:], e.sum[:Size])
	copy(g1[:], e.sum[Size:2*Size])
}

// walk descends depth levels following the low depth bits of path, most
// significant first.
func (e *Expander) walk(seed Value, path uint64, depth uint8) Value {
	var g0, g1 Value
	for i := int(depth) - 1; i >= 0; i-- {
		e.g(&seed, &g0, &g1)
		if (path>>uint(i))&1 == 0 {
			seed = g0
		} else {
			seed = g1
		}
	}
	return seed
}

// Eval computes the leaf DPRF value f_k(a) using e's scratch.
func (e *Expander) Eval(k Key, a uint64) (Value, error) {
	if err := e.checkKey(k); err != nil {
		return Value{}, err
	}
	if a >= uint64(1)<<k.bits {
		return Value{}, fmt.Errorf("dprf: value %d outside %d-bit domain", a, k.bits)
	}
	return e.walk(k.seed, a, k.bits), nil
}

// NodeToken computes one delegation token using e's scratch; it is
// Key.NodeToken without the per-call evaluator setup.
func (e *Expander) NodeToken(k Key, n cover.Node) (Token, error) {
	if err := e.checkKey(k); err != nil {
		return Token{}, err
	}
	if err := k.checkNode(n); err != nil {
		return Token{}, err
	}
	prefix := n.Start >> n.Level
	return Token{Level: n.Level, Value: e.walk(k.seed, prefix, k.bits-n.Level)}, nil
}

// DelegateNodes appends one token per covering node to dst. Consecutive
// nodes of a BRC/URC cover sit near each other in the tree, so instead
// of walking each node's full root path the Expander keeps the previous
// path's seed stack and restarts from the deepest common ancestor —
// siblings re-derive one level instead of bits-Level. Token values are
// byte-identical to Key.NodeToken's.
func (e *Expander) DelegateNodes(dst []Token, k Key, nodes []cover.Node) ([]Token, error) {
	if err := e.checkKey(k); err != nil {
		return dst, err
	}
	e.seeds = append(e.seeds[:0], k.seed)
	var (
		pathVal uint64 // bits of the previous node's root path
		pathLen uint8  // its depth; e.seeds holds pathLen+1 seeds
		g0, g1  Value
	)
	for _, n := range nodes {
		if err := k.checkNode(n); err != nil {
			return dst, err
		}
		p := n.Start >> n.Level
		d := k.bits - n.Level
		// Longest common prefix of the previous path and this one.
		m := min(pathLen, d)
		common := m
		if m > 0 {
			diff := (pathVal >> (pathLen - m)) ^ (p >> (d - m))
			common = m - uint8(bits.Len64(diff))
		}
		e.seeds = e.seeds[:common+1]
		seed := e.seeds[common]
		for i := int(d-common) - 1; i >= 0; i-- {
			e.g(&seed, &g0, &g1)
			if (p>>uint(i))&1 == 0 {
				seed = g0
			} else {
				seed = g1
			}
			e.seeds = append(e.seeds, seed)
		}
		pathVal, pathLen = p, d
		dst = append(dst, Token{Level: n.Level, Value: seed})
	}
	return dst, nil
}

// ExpandInto appends the 2^Level leaf values of t to dst and returns
// it, expanding the subtree iteratively in place: level by level, each
// seed at index i spawns its children at 2i and 2i+1 (walking i
// downward so unprocessed seeds are never overwritten), which yields
// the leaves in the same left-to-right order as the recursive
// definition without a call stack or temporary buffers.
func (e *Expander) ExpandInto(dst []Value, t Token) []Value {
	w := 1 << t.Level
	base := len(dst)
	dst = slices.Grow(dst, w)[:base+w]
	s := dst[base:]
	s[0] = t.Value
	for depth := 0; depth < int(t.Level); depth++ {
		for i := 1<<depth - 1; i >= 0; i-- {
			e.g(&s[i], &s[2*i], &s[2*i+1])
		}
	}
	return dst
}

// Leaves expands t into e's retained leaf buffer and returns it. The
// slice is only valid until the next Leaves call or PutExpander; the
// buffer's capacity carries across pool checkouts, so steady-state
// expansions cost no allocation at all.
func (e *Expander) Leaves(t Token) []Value {
	e.leaves = e.ExpandInto(e.leaves[:0], t)
	return e.leaves
}

// checkKey refuses a key whose GGM tree is of another suite than e
// evaluates: its tokens would be values no holder of the key derives.
func (e *Expander) checkKey(k Key) error {
	if k.suite != e.suite {
		return fmt.Errorf("dprf: %v key on a %v expander", k.suite, e.suite)
	}
	return nil
}

// checkNode validates that n is a dyadic node of k's domain.
func (k Key) checkNode(n cover.Node) error {
	if n.Level > k.bits {
		return fmt.Errorf("dprf: node level %d above domain height %d", n.Level, k.bits)
	}
	if n.Start&(n.Size()-1) != 0 {
		return fmt.Errorf("dprf: node %v is not dyadic-aligned", n)
	}
	if n.End() >= uint64(1)<<k.bits {
		return fmt.Errorf("dprf: node %v outside %d-bit domain", n, k.bits)
	}
	return nil
}
