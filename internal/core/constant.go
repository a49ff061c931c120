package core

import (
	"cmp"
	"fmt"
	"slices"

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
// client-side guard in Query.

func (c *Client) buildConstant(x *Index, tuples []Tuple) error {
	byValue := make(map[Value][]ID)
	for _, t := range tuples {
		byValue[t.Value] = append(byValue[t.Value], t.ID)
	}
	// Leaf stags in ascending value order through one prefix-memoized
	// walk over level-0 nodes: neighbouring values share most of their
	// GGM root path, so each costs the levels below the common ancestor
	// instead of a full walk — and the entry order, which steers the
	// posting-list shuffles, no longer depends on map iteration. The
	// values are kDPRF.Eval's.
	nodes := make([]cover.Node, 0, len(byValue))
	for v := range byValue {
		nodes = append(nodes, cover.Node{Start: v})
	}
	slices.SortFunc(nodes, func(a, b cover.Node) int { return cmp.Compare(a.Start, b.Start) })
	e := dprf.GetExpanderSuite(c.suite)
	leaves, err := e.DelegateNodes(make([]dprf.Token, 0, len(nodes)), c.kDPRF.WithSuite(c.suite), nodes)
	dprf.PutExpander(e)
	if err != nil {
		return err
	}
	entries := make([]sse.Entry, len(nodes))
	for i, n := range nodes {
		entries[i] = sse.EntryFromIDs(sse.Stag(leaves[i].Value), byValue[n.Start])
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
// The expansion is the O(R) term in the scheme's search cost.
func (x *Index) searchConstant(t *Trapdoor) (*Response, error) {
	resp := &Response{Groups: make([][][]byte, 0, len(t.GGM))}
	e := dprf.GetExpanderSuite(x.suite)
	defer dprf.PutExpander(e)
	for _, tok := range t.GGM {
		group, err := x.searchConstantToken(e, tok)
		if err != nil {
			return nil, err
		}
		resp.Groups = append(resp.Groups, group)
	}
	return resp, nil
}

// searchConstantToken expands one GGM token with e and searches each
// leaf — one result group. The token comes from an untrusted peer: a
// level above the domain's height names no subtree of this index, and
// expanding it would size an allocation by 2^Level (or, from level 64
// up, by a shift that wraps to zero), so it is refused before any work.
func (x *Index) searchConstantToken(e *dprf.Expander, tok dprf.Token) ([][]byte, error) {
	if tok.Level > x.dom.Bits {
		return nil, fmt.Errorf("%w: level %d, domain height %d", ErrTokenLevel, tok.Level, x.dom.Bits)
	}
	var group [][]byte
	for _, leaf := range e.Leaves(tok) {
		g, err := x.primary.Search(sse.Stag(leaf))
		if err != nil {
			return nil, err
		}
		group = append(group, g...)
	}
	return group, nil
}
