package cover

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
	// Nodes is the union of all covers, each node exactly once, in order
	// of first appearance (range order, left to right within a cover).
	Nodes []Node
	// PerRange[i] holds, for input range i, the indices into Nodes of its
	// cover, in the cover's own left-to-right order. A plan of one
	// interval leaves it nil: a single cover lists each node once, so
	// Nodes is that cover.
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
	return planBatch(ranges, func(r Interval) ([]Node, error) { return Cover(d, r.Lo, r.Hi, t) })
}

// PlanBatchSRC is the single-range-cover analogue: every interval maps to
// its one SRC node on the TDAG, and identical windows collapse. This is
// the plan behind batched Logarithmic-SRC (and each round of SRC-i)
// queries, where nearby ranges frequently resolve to the same window.
func PlanBatchSRC(t TDAG, ranges []Interval) (BatchPlan, error) {
	return planBatch(ranges, func(r Interval) ([]Node, error) {
		n, err := t.SRC(r.Lo, r.Hi)
		if err != nil {
			return nil, err
		}
		return []Node{n}, nil
	})
}

// planBatch merges the covers cover returns for each interval. The
// dedup map is built only once a second cover arrives.
func planBatch(ranges []Interval, cover func(Interval) ([]Node, error)) (BatchPlan, error) {
	var p BatchPlan
	var seen map[Node]int
	for i, r := range ranges {
		nodes, err := cover(r)
		if err != nil {
			return BatchPlan{}, err
		}
		p.Total += len(nodes)
		if len(ranges) == 1 {
			p.Nodes = nodes
			break
		}
		if seen == nil {
			seen = make(map[Node]int)
			p.PerRange = make([][]int, len(ranges))
		}
		idxs := make([]int, len(nodes))
		for j, n := range nodes {
			u, ok := seen[n]
			if !ok {
				u = len(p.Nodes)
				seen[n] = u
				p.Nodes = append(p.Nodes, n)
			}
			idxs[j] = u
		}
		p.PerRange[i] = idxs
	}
	return p, nil
}
