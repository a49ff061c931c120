package core

import "rsse/internal/cover"

// TrapdoorCost reports the owner-side query cost for a range without
// requiring an index: the number of tokens and the serialized query size
// in bytes, after performing the real cryptographic work (cover
// computation plus PRF/GGM evaluations). This is the measurement behind
// Figures 8(a) and 8(b) in Appendix A, which the paper notes depend only
// on the position of the range over the domain, never on a dataset. The
// work is what a query runs: the first-round derivation of
// QueryContext, under the suite this client builds, bypassing the
// trapdoor memo.
//
// For Logarithmic-SRC-i, whose second token normally depends on the
// server's round-1 answer, the cost is modelled as the paper measures it:
// two SRC covers plus two PRF evaluations (the second, under the position
// index's key, over the same range on a position TDAG of equal height),
// since token generation work is identical regardless of the position
// range's actual endpoints.
func (c *Client) TrapdoorCost(q Range) (tokens, bytes int, err error) {
	if err := c.dom.CheckRange(q.Lo, q.Hi); err != nil {
		return 0, 0, err
	}
	p, err := c.freshRound1([]Range{q}, c.suite)
	if err != nil {
		return 0, 0, err
	}
	tokens, bytes = p.trap.Tokens(), p.trap.Bytes()
	if c.kind == LogarithmicSRCi {
		p2, err := cover.PlanBatchSRC(cover.NewTDAG(c.dom), []cover.Interval{{Lo: q.Lo, Hi: q.Hi}})
		if err != nil {
			return 0, 0, err
		}
		t2 := c.stagPlanFromNodes(p2, c.suite, c.kSSE2, 2).trap
		tokens, bytes = tokens+t2.Tokens(), bytes+t2.Bytes()
	}
	return tokens, bytes, nil
}
