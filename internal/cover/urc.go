package cover

import (
	"errors"
	"math/bits"
	"sort"
)

var errUnknownTechnique = errors.New("cover: unknown range covering technique")

// urcMassVector computes, for a range size R, the canonical "mass" vector
// W where W[t] = sum over levels l >= t of count[l] * 2^(l-t) — i.e. the
// total coverage held by nodes at level t or above, in units of 2^t.
// W[0] = R.
//
// For each t the value is the pointwise minimum over all positions of the
// BRC decomposition of a size-R range: a BRC cover has at most two nodes
// per level (one per boundary staircase), so the mass below level t is at
// most 2*(2^t - 1), must be congruent to R mod 2^t, and any such value is
// attained by some position. This yields the closed form below, which the
// tests validate exhaustively against brute force.
func urcMassVector(R uint64) []uint64 {
	W := []uint64{R}
	for t := uint(1); t <= 63; t++ {
		p := uint64(1) << t
		if p > R {
			break // no node at level >= t can fit in a size-R range
		}
		rho := R & (p - 1)
		maxlow := rho
		if rho <= p-2 && rho+p <= R {
			maxlow = rho + p
		}
		W = append(W, (R-maxlow)>>t)
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
	W := urcMassVector(R)
	counts := make([]uint64, len(W))
	for l := range counts {
		var above uint64
		if l+1 < len(W) {
			above = W[l+1]
		}
		counts[l] = W[l] - 2*above
	}
	for len(counts) > 1 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	return counts
}

// URCNodeCount returns |U(R)|, the number of tokens a URC query of size R
// produces. It is O(log R) and independent of the range position.
func URCNodeCount(R uint64) int {
	var n uint64
	for _, c := range URCLevelCounts(R) {
		n += c
	}
	return int(n)
}

// URC computes the uniform range cover of [lo, hi]: it refines the BRC
// output by splitting nodes top-down until the per-level node counts match
// the canonical multiset U(R) for R = hi-lo+1. The result covers the range
// exactly (no false positives) and its level multiset is the same for
// every position of a size-R range. Nodes are returned left to right.
func URC(d Domain, lo, hi uint64) ([]Node, error) {
	nodes, err := BRC(d, lo, hi)
	if err != nil {
		return nil, err
	}
	R := hi - lo + 1
	target := URCLevelCounts(R)

	// Current per-level counts; BRC never exceeds level bits.Len64(R).
	maxLevel := 0
	for _, n := range nodes {
		if int(n.Level) > maxLevel {
			maxLevel = int(n.Level)
		}
	}
	cur := make([]uint64, maxLevel+1)
	for _, n := range nodes {
		cur[n.Level]++
	}
	targetAt := func(l int) uint64 {
		if l < len(target) {
			return target[l]
		}
		return 0
	}

	// Split top-down. The BRC mass vector dominates the canonical one
	// pointwise, so at the highest level where counts differ the current
	// count is strictly larger and a split is always available.
	for l := maxLevel; l >= 1; l-- {
		for cur[l] > targetAt(l) {
			i := indexOfLevel(nodes, uint8(l))
			left, right := nodes[i].Children()
			nodes = append(nodes, Node{})
			copy(nodes[i+2:], nodes[i+1:])
			nodes[i], nodes[i+1] = left, right
			cur[l]--
			cur[l-1] += 2
		}
	}
	return nodes, nil
}

// indexOfLevel returns the position of the leftmost node at the given
// level. URC's refinement only splits levels that still hold nodes.
func indexOfLevel(nodes []Node, level uint8) int {
	for i, n := range nodes {
		if n.Level == level {
			return i
		}
	}
	panic("cover: URC refinement ran out of nodes at a level")
}

// SortNodes orders nodes by start offset then level; used by tests and by
// schemes that need a canonical order before permuting.
func SortNodes(nodes []Node) {
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Start != nodes[j].Start {
			return nodes[i].Start < nodes[j].Start
		}
		return nodes[i].Level < nodes[j].Level
	})
}

// ceilLog2 returns ceil(log2(v)) for v >= 1.
func ceilLog2(v uint64) uint8 {
	if v <= 1 {
		return 0
	}
	return uint8(bits.Len64(v - 1))
}
