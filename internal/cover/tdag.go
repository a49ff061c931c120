package cover

// TDAG is the tree-like directed acyclic graph of Section 6.2. It extends
// the full binary tree over the domain with one "injected" node between
// every two consecutive nodes at every level, connected to the right child
// of its left neighbour and the left child of its right neighbour.
//
// Concretely, level l (for l >= 1) of the TDAG consists of every window of
// size 2^l whose start is a multiple of 2^(l-1) and which fits inside the
// domain: the even multiples are the original binary-tree nodes and the odd
// multiples are the injected nodes. Level 0 is the set of leaves.
//
// The structure guarantees (Lemma 1) that every range of size R is fully
// covered by a single node of size at most 4R, which bounds the false
// positives of the Logarithmic-SRC scheme on uniform data.
type TDAG struct {
	D Domain
}

// NewTDAG builds a TDAG descriptor over the given domain.
func NewTDAG(d Domain) TDAG { return TDAG{D: d} }

// Valid reports whether n is a node of the TDAG: its start must be aligned
// to half its size (or be a leaf) and the window must fit in the domain.
func (t TDAG) Valid(n Node) bool {
	if n.Level > t.D.Bits {
		return false
	}
	if n.Level > 0 {
		half := n.Size() / 2
		if n.Start%half != 0 {
			return false
		}
	}
	return n.Start+n.Size() <= t.D.Size()
}

// Runs returns the run of every TDAG node that holds one of keys, which
// ascend, level by level (tree nodes, then injected ones) in key order.
// Logarithmic-SRC replicates a tuple under every window that contains
// its value (Section 6.2): at most 2*Bits + 1 = O(log m) of them.
func (t TDAG) Runs(keys []uint64) []Run {
	var runs []Run
	for l := uint8(0); l <= t.D.Bits; l++ {
		runs = appendRuns(runs, keys, l, 0, t.D.Size())
		if l > 0 {
			runs = appendRuns(runs, keys, l, 1<<(l-1), t.D.Size())
		}
	}
	return runs
}

// NaiveSingleCover returns the lowest *binary-tree* node covering
// [lo, hi] — the strawman single-range cover Section 6.2 discusses before
// introducing the TDAG. Its window can be as large as the whole domain
// regardless of R (a range straddling the midpoint forces the root),
// which is exactly the failure mode the injected TDAG nodes repair; the
// ablation benchmarks quantify the difference.
func NaiveSingleCover(d Domain, lo, hi uint64) (Node, error) {
	if err := d.CheckRange(lo, hi); err != nil {
		return Node{}, err
	}
	for l := ceilLog2(hi - lo + 1); l <= d.Bits; l++ {
		start := lo >> l << l
		if hi <= start+(uint64(1)<<l)-1 {
			return Node{Level: l, Start: start}, nil
		}
	}
	return d.Root(), nil
}

// SRC returns the single range cover of [lo, hi]: the lowest TDAG node
// whose window fully contains the range (Section 6.2). By Lemma 1 the
// window size is at most 4R (and never exceeds the domain size). The
// computation is O(log R) as the paper requires: it probes levels from
// ceil(log2 R) upward and at most two candidate windows per level.
func (t TDAG) SRC(lo, hi uint64) (Node, error) {
	if err := t.D.CheckRange(lo, hi); err != nil {
		return Node{}, err
	}
	R := hi - lo + 1
	if R == 1 {
		return Node{Level: 0, Start: lo}, nil
	}
	for l := ceilLog2(R); l <= t.D.Bits; l++ {
		half := uint64(1) << (l - 1)
		size := half * 2
		q := lo / half
		for _, k := range [2]uint64{q, q - 1} {
			if k > q {
				continue
			}
			start := k * half
			if start+size > t.D.Size() {
				continue
			}
			if start <= lo && hi <= start+size-1 {
				return Node{Level: l, Start: start}, nil
			}
		}
	}
	// Unreachable: the root window always covers any valid range.
	return t.D.Root(), nil
}
