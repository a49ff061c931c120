package core

import (
	"rsse/internal/cover"
)

// Logarithmic-SRC (Section 6.2) eliminates the result-partitioning
// leakage of Logarithmic-BRC/URC by covering every query with a *single*
// keyword. Tuples are replicated under the TDAG windows containing their
// value (still O(log m) keywords per tuple thanks to the injected nodes),
// and a query maps to the lowest TDAG window containing it, whose size
// Lemma 1 bounds by 4R. The price is false positives — everything in the
// window but outside the query — which heavy skew can push to O(n).

func (c *Client) buildLogSRC(x *Index, tuples []Tuple) error {
	tdag := cover.NewTDAG(c.dom)
	postings := newPostingLists[cover.Node, ID]()
	for _, t := range tuples {
		for _, node := range tdag.Cover(t.Value) {
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
