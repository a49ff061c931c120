package core

import (
	"rsse/internal/cover"
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
	postings := newPostingLists[cover.Node, ID]()
	for _, t := range tuples {
		for _, node := range cover.PathNodes(c.dom, t.Value) {
			postings.add(node, t.ID)
		}
	}
	idx, err := c.sse.Build(c.entriesFromPostings(postings, c.kSSE), 8, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.primary = idx
	return nil
}
