package core

import (
	"fmt"
	"slices"
	"sync"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/sse"
)

// The Constant schemes (Section 5) assign each tuple the single keyword
// d.a — its attribute value — so the index holds exactly n postings (the
// O(n) row of Table 1). The trick enabling O(log R)-size queries is the
// Delegatable PRF: the per-value search tag is not PRF(k, a) but the GGM
// leaf value f_k(a), so the owner can ship the O(log R) GGM inner nodes of
// the BRC or URC cover and the server derives the R leaf tags itself.
//
// The price is structural leakage (the exact mapping of result ids to the
// leaves of each cover subtree, which reveals in-subtree ordering) and the
// inherent DPRF restriction to non-intersecting queries, enforced by the
// client-side guard in QueryBatchInto.

func (c *Client) buildConstant(x *Index, p plan) error {
	// A leaf's list is its value's run. Leaf stags come in value order
	// from one prefix-memoized walk: neighbouring values share most of
	// their GGM root path, so each costs the levels below the common
	// ancestor instead of a full walk. The values are kDPRF.Eval's.
	runs := cover.LeafRuns(p.vals)
	nodes := make([]cover.Node, len(runs))
	for i, r := range runs {
		nodes[i] = r.Node
	}
	e := dprf.GetExpanderSuite(c.suite)
	leaves, err := e.DelegateNodes(make([]dprf.Token, 0, len(nodes)), c.kDPRF.WithSuite(c.suite), nodes)
	dprf.PutExpander(e)
	if err != nil {
		return err
	}
	entries := make([]sse.Entry, len(runs))
	for i, r := range runs {
		entries[i] = sse.Entry{Stag: sse.Stag(leaves[i].Value), Data: p.ids[8*r.Lo : 8*r.Hi]}
	}
	idx, err := c.sse.Build(entries, 8, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.primary = idx
	return nil
}

// searchConstant expands each GGM token into its 2^level leaf DPRF values
// (the public derivation function C) and uses them as SSE search tags.
// The expansion is the O(R) term in the scheme's search cost. The leaves
// of every token are searched together, leafChunk stags per sse search,
// and each token's group is its leaves' items in leaf order.
//
// A token comes from an untrusted peer: a level above the domain's
// height names no subtree of this index, and expanding it would size an
// allocation by 2^Level (or, from level 64 up, by a shift that wraps to
// zero), so the trapdoor is refused before any work.
func (x *Index) searchConstant(t *Trapdoor) (*Response, error) {
	for _, tok := range t.GGM {
		if tok.Level > x.dom.Bits {
			return nil, fmt.Errorf("%w: level %d, domain height %d", ErrTokenLevel, tok.Level, x.dom.Bits)
		}
	}
	e := dprf.GetExpanderSuite(x.suite)
	defer dprf.PutExpander(e)
	sc := leafScratchPool.Get().(*leafScratch)
	defer sc.release()
	for _, tok := range t.GGM {
		for _, leaf := range e.Leaves(tok) {
			if len(sc.stags) == leafChunk {
				if err := sc.flush(x.primary); err != nil {
					return nil, err
				}
			}
			sc.stags = append(sc.stags, sse.Stag(leaf))
		}
		sc.ends = append(sc.ends, sc.leaves+len(sc.stags))
	}
	if err := sc.flush(x.primary); err != nil {
		return nil, err
	}
	return sc.response(x.primary.Width()), nil
}

// leafChunk bounds the leaf stags searched at once, and so the scratch
// a Constant search holds however wide its tokens are.
const leafChunk = 1024

// leafScratch is a Constant search's pooled scratch: the leaf stags
// waiting to be searched, the items of the leaves searched so far, and
// where each token's leaves end.
type leafScratch struct {
	stags    []sse.Stag
	data     []byte // the searched leaves' items, in leaf order
	leafEnds []int  // per leaf of the last flush: its end in data, in items
	ends     []int  // per token: the leaf count after its last leaf
	marks    []int  // per token: the item count after its last leaf
	leaves   int    // leaves searched so far
}

var leafScratchPool = sync.Pool{New: func() any { return new(leafScratch) }}

// flush searches the waiting leaf stags and appends their items.
func (sc *leafScratch) flush(idx sse.Index) error {
	var err error
	if sc.data, sc.leafEnds, err = idx.Search(sc.stags, sc.data, sc.leafEnds[:0]); err != nil {
		return err
	}
	for _, end := range sc.leafEnds {
		sc.leaves++
		for len(sc.marks) < len(sc.ends) && sc.ends[len(sc.marks)] == sc.leaves {
			sc.marks = append(sc.marks, end)
		}
	}
	sc.stags = sc.stags[:0]
	return nil
}

// response returns one group per token, of width-byte items.
func (sc *leafScratch) response(width int) *Response {
	return &Response{Width: width, Data: slices.Clone(sc.data), Ends: slices.Clone(sc.marks)}
}

func (sc *leafScratch) release() {
	sc.stags, sc.data, sc.ends, sc.marks, sc.leaves = sc.stags[:0], sc.data[:0], sc.ends[:0], sc.marks[:0], 0
	leafScratchPool.Put(sc)
}
