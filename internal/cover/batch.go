package cover

import (
	"cmp"
	"math/bits"
	"slices"
)

// Multi-range cover planning. Correlated range workloads — bursts of
// queries over neighbouring intervals — produce BRC/URC covers that share
// dyadic nodes heavily: two ranges covering the same hot region request
// many of the same subtrees. A BatchPlan computes every range's cover
// once, deduplicates the shared nodes, and remembers which ranges asked
// for each node, so the query layer can derive one token per *unique*
// node and demultiplex the per-node results back into every requesting
// range.

// Interval is one closed input range [Lo, Hi] of a batch cover plan.
type Interval struct {
	Lo, Hi uint64
}

// BatchPlan is a deduplicated multi-range cover: the union of the
// per-range covers with every node listed once, plus the per-range view
// into that union.
type BatchPlan struct {
	// Nodes is the union of all covers, each node exactly once, sorted by
	// start offset then level (SortNodes' order). The order carries no
	// information past the node set: the query layer lays the tokens into
	// the trapdoor through one uniform permutation of len(Nodes) slots.
	// Sorted nodes sit next to those they share GGM path prefixes with,
	// which the Constant schemes' prefix-memoized delegation reuses.
	Nodes []Node
	// PerRange[i] holds, for input range i, the indices into Nodes of its
	// cover, in the cover's own left-to-right order: windows of one
	// array, each capped at its own length. A plan of one interval leaves
	// it nil: a single cover lists each node once, sorted, so Nodes is
	// that cover.
	PerRange [][]int
	// Total is the summed size of the individual covers before
	// deduplication; Total - len(Nodes) tokens are saved by the plan.
	Total int
}

// Unique returns the number of distinct cover nodes across the batch.
func (p *BatchPlan) Unique() int { return len(p.Nodes) }

// PlanBatch covers every interval with the technique and deduplicates
// nodes shared across covers. Each interval is validated against the
// domain exactly as Cover would.
func PlanBatch(d Domain, ranges []Interval, t Technique) (BatchPlan, error) {
	if t != BRCTechnique && t != URCTechnique {
		return BatchPlan{}, errUnknownTechnique
	}
	total := 0
	for _, r := range ranges {
		if err := d.CheckRange(r.Lo, r.Hi); err != nil {
			return BatchPlan{}, err
		}
		total += t.size(r.Lo, r.Hi)
	}
	covers := make([]Node, 0, 2*total)
	for _, r := range ranges {
		covers = t.appendCover(covers, r.Lo, r.Hi)
	}
	return dedup(covers, ranges, t.size, d.keyed()), nil
}

// PlanBatchSRC is the single-range-cover analogue: every interval maps to
// its one SRC node on the TDAG, and identical windows collapse. This is
// the plan behind batched Logarithmic-SRC (and each round of SRC-i)
// queries, where nearby ranges frequently resolve to the same window.
func PlanBatchSRC(t TDAG, ranges []Interval) (BatchPlan, error) {
	covers := make([]Node, 0, 2*len(ranges))
	for _, r := range ranges {
		n, err := t.SRC(r.Lo, r.Hi)
		if err != nil {
			return BatchPlan{}, err
		}
		covers = append(covers, n)
	}
	return dedup(covers, ranges, func(uint64, uint64) int { return 1 }, t.D.keyed()), nil
}

// levelBits is the width of a node's level in its sort key.
const levelBits = 7

// keyed reports whether every node of d has a sort key (nodeKey): Start
// shifted past its level fits a non-negative int.
func (d Domain) keyed() bool { return uint(d.Bits)+levelBits < bits.UintSize }

// nodeKey is n's position in compareNodes' order as one int: Start above
// the level's levelBits bits. It is only defined on a keyed domain.
func nodeKey(n Node) int { return int(n.Start<<levelBits | uint64(n.Level)) }

// keyNode inverts nodeKey.
func keyNode(k int) Node {
	return Node{Level: uint8(k & (1<<levelBits - 1)), Start: uint64(k) >> levelBits}
}

// dedup plans covers, the covers of ranges one after another, with as
// much room again behind them: a batch's union is a sorted, compacted
// copy in that room, and every cover node's index in it, found by binary
// search, lands in one array that PerRange windows. On a keyed domain
// the sort and the searches run on nodeKey's ints, whose compare the
// compiler inlines, with the union's keys in the first half of the one
// int array whose second half becomes the indexes; otherwise on
// compareNodes.
func dedup(covers []Node, ranges []Interval, size func(lo, hi uint64) int, keyed bool) BatchPlan {
	p := BatchPlan{Nodes: covers, Total: len(covers)}
	if len(ranges) == 1 {
		return p
	}
	var idx []int
	if keyed {
		arena := make([]int, 2*len(covers))
		keys := arena[:len(covers)]
		idx = arena[len(covers):]
		for k, n := range covers {
			idx[k] = nodeKey(n)
		}
		copy(keys, idx)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		p.Nodes = covers[len(covers) : len(covers)+len(keys) : len(covers)+len(keys)]
		for k, key := range keys {
			p.Nodes[k] = keyNode(key)
		}
		for k, key := range idx {
			idx[k], _ = slices.BinarySearch(keys, key)
		}
	} else {
		p.Nodes = append(covers[len(covers):], covers...)
		slices.SortFunc(p.Nodes, compareNodes)
		p.Nodes = slices.Clip(slices.Compact(p.Nodes))
		idx = make([]int, len(covers))
		for k, n := range covers {
			idx[k], _ = slices.BinarySearchFunc(p.Nodes, n, compareNodes)
		}
	}
	p.PerRange = make([][]int, len(ranges))
	for i, r := range ranges {
		n := size(r.Lo, r.Hi)
		p.PerRange[i], idx = idx[:n:n], idx[n:]
	}
	return p
}

// compareNodes orders nodes by start offset, then level.
func compareNodes(a, b Node) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Level, b.Level))
}
