package core

import (
	"fmt"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/sse"
)

// TrapdoorCost reports the owner-side query cost for a range without
// requiring an index: the number of tokens and the serialized query size
// in bytes, after performing the real cryptographic work (cover
// computation plus PRF/GGM evaluations). This is the measurement behind
// Figures 8(a) and 8(b) in Appendix A, which the paper notes depend only
// on the position of the range over the domain, never on a dataset.
//
// For Logarithmic-SRC-i, whose second token normally depends on the
// server's round-1 answer, the cost is modelled as the paper measures it:
// two SRC covers plus two PRF evaluations (the second over the same range
// on a position TDAG of equal height), since token generation work is
// identical regardless of the position range's actual endpoints.
func (c *Client) TrapdoorCost(q Range) (tokens, bytes int, err error) {
	if err := c.dom.CheckRange(q.Lo, q.Hi); err != nil {
		return 0, 0, err
	}
	switch c.kind {
	case Quadratic:
		_ = c.stagFor(rangeKeyword(q.Lo, q.Hi))
		return 1, sse.StagSize, nil
	case ConstantBRC, ConstantURC:
		toks, err := c.kDPRF.WithSuite(c.suite).Delegate(q.Lo, q.Hi, c.technique())
		if err != nil {
			return 0, 0, err
		}
		return len(toks), len(toks) * dprf.TokenSize, nil
	case LogarithmicBRC, LogarithmicURC:
		nodes, err := cover.Cover(c.dom, q.Lo, q.Hi, c.technique())
		if err != nil {
			return 0, 0, err
		}
		for _, n := range nodes {
			_ = c.stagFor(n.Keyword())
		}
		return len(nodes), len(nodes) * sse.StagSize, nil
	case LogarithmicSRC:
		node, err := cover.NewTDAG(c.dom).SRC(q.Lo, q.Hi)
		if err != nil {
			return 0, 0, err
		}
		_ = c.stagFor(node.Keyword())
		return 1, sse.StagSize, nil
	case LogarithmicSRCi:
		tdag := cover.NewTDAG(c.dom)
		n1, err := tdag.SRC(q.Lo, q.Hi)
		if err != nil {
			return 0, 0, err
		}
		_ = c.stagFor(n1.Keyword())
		n2, err := tdag.SRC(q.Lo, q.Hi)
		if err != nil {
			return 0, 0, err
		}
		_ = sse.StagFromPRF(c.kSSE2, n2.Keyword())
		return 2, 2 * sse.StagSize, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown scheme kind %d", int(c.kind))
	}
}
