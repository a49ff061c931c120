package cover

import (
	"errors"
	"math/bits"
	"slices"
)

var errUnknownTechnique = errors.New("cover: unknown range covering technique")

// urcMass computes, for a range size R, the canonical "mass" vector W
// where W[t] = sum over levels l >= t of count[l] * 2^(l-t) — i.e. the
// total coverage held by nodes at level t or above, in units of 2^t.
// W[0] = R, and W[t] = 0 once 2^t > R.
//
// For each t the value is the pointwise minimum over all positions of the
// BRC decomposition of a size-R range: a BRC cover has at most two nodes
// per level (one per boundary staircase), so the mass below level t is at
// most 2*(2^t - 1), must be congruent to R mod 2^t, and any such value is
// attained by some position. This yields the closed form below, which the
// tests validate exhaustively against brute force.
func urcMass(R uint64) (W [64]uint64) {
	W[0] = R
	for t := 1; t < bits.Len64(R); t++ {
		p := uint64(1) << t
		rho := R & (p - 1)
		maxlow := rho
		if rho <= p-2 && rho+p <= R {
			maxlow = rho + p
		}
		W[t] = (R - maxlow) >> t
	}
	return W
}

// URCLevelCounts returns the canonical level multiset U(R) of the uniform
// range cover as per-level node counts: counts[l] nodes at level l. The
// multiset depends only on R — this position independence is exactly the
// security property URC buys over BRC (Section 2.2): an adversary seeing
// the number and levels of tokens learns only the range size, never where
// the range sits in the domain.
func URCLevelCounts(R uint64) []uint64 {
	if R == 0 {
		return nil
	}
	W, above := urcMass(R), uint64(0)
	counts := make([]uint64, bits.Len64(R))
	for l := len(counts) - 1; l >= 0; l-- {
		counts[l], above = W[l]-2*above, W[l]
	}
	for len(counts) > 1 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts
}

// URCNodeCount returns |U(R)|, the number of tokens a URC query of size R
// produces. It is O(log R) and independent of the range position: the
// counts W[l] - 2W[l+1] telescope to R less the mass above level 0.
func URCNodeCount(R uint64) int {
	W := urcMass(R)
	n := R
	for _, w := range W[1:] {
		n -= w
	}
	return int(n)
}

// URC computes the uniform range cover of [lo, hi]: it refines the BRC
// output by splitting nodes until the per-level node counts match the
// canonical multiset U(R) for R = hi-lo+1. The result covers the range
// exactly (no false positives) and its level multiset is the same for
// every position of a size-R range. Nodes are returned left to right.
func URC(d Domain, lo, hi uint64) ([]Node, error) { return Cover(d, lo, hi, URCTechnique) }

// refine appends n to dst or, while split[n.Level] lasts, its two
// halves refined the same way, depth first. Walking the BRC nodes left to
// right this way splits the leftmost split[l] nodes of every level l —
// the nodes URC's top-down refinement splits — and keeps its order.
func refine(dst []Node, n Node, split *[64]uint64) []Node {
	for n.Level > 0 && split[n.Level] > 0 {
		split[n.Level]--
		left, right := n.Children()
		dst = refine(dst, left, split)
		n = right
	}
	return append(dst, n)
}

// SortNodes orders nodes by start offset then level; used by tests and by
// schemes that need a canonical order before permuting.
func SortNodes(nodes []Node) { slices.SortFunc(nodes, compareNodes) }

// ceilLog2 returns ceil(log2(v)) for v >= 1.
func ceilLog2(v uint64) uint8 {
	if v <= 1 {
		return 0
	}
	return uint8(bits.Len64(v - 1))
}
