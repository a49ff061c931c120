package core

import (
	"rsse/internal/cover"
	"rsse/internal/sse"
)

// The Logarithmic-BRC/URC schemes (Section 6.1) avoid the Constant
// schemes' DPRF — and its structural leakage and query-intersection
// restriction — by replicating each tuple under the log m + 1 keywords of
// the dyadic nodes on the path from the binary-tree root to its value.
// A query is the BRC or URC cover of the range, one ordinary SSE token
// per covering node, so search runs in O(log R + r) with no false
// positives. What still leaks is the partitioning of the result ids into
// per-token groups.

func (c *Client) buildLogarithmic(x *Index, tuples []Tuple) error {
	postings := make(map[string][]ID)
	for _, t := range tuples {
		for _, node := range cover.PathNodes(c.dom, t.Value) {
			kw := node.Keyword()
			postings[kw] = append(postings[kw], t.ID)
		}
	}
	idx, err := c.sse.Build(c.entriesFromPostings(postings, c.kSSE), 8, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.primary = idx
	return nil
}

// trapdoorLogarithmic emits one SSE token per node of the BRC/URC cover,
// randomly permuted.
func (c *Client) trapdoorLogarithmic(q Range) (*Trapdoor, error) {
	nodes, err := cover.Cover(c.dom, q.Lo, q.Hi, c.technique())
	if err != nil {
		return nil, err
	}
	stags := nodeStags(make([]sse.Stag, 0, len(nodes)), c.kSSE, nodes)
	c.permuteStags(stags)
	return &Trapdoor{round: 1, Stags: stags}, nil
}
