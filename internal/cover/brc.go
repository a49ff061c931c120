package cover

import "math/bits"

// Technique selects a range-covering technique for the schemes that are
// parametric in it (Constant-* and Logarithmic-* of Sections 5 and 6.1).
type Technique int

const (
	// BRCTechnique is the best range cover: the unique minimal set of
	// dyadic nodes covering the range exactly.
	BRCTechnique Technique = iota
	// URCTechnique is the uniform range cover of Kiayias et al. [24]: a
	// worst-case decomposition whose level multiset depends only on the
	// range size, not its position.
	URCTechnique
)

// String returns the technique's conventional name.
func (t Technique) String() string {
	switch t {
	case BRCTechnique:
		return "BRC"
	case URCTechnique:
		return "URC"
	default:
		return "unknown"
	}
}

// Cover dispatches to BRC or URC: the plan of one interval.
func Cover(d Domain, lo, hi uint64, t Technique) ([]Node, error) {
	p, err := PlanBatch(d, []Interval{{lo, hi}}, t)
	return p.Nodes, err
}

// BRC computes the best range cover of [lo, hi]: the unique minimal set of
// dyadic nodes whose intervals partition the range (the "minimum dyadic
// intervals" of Section 2.2). Nodes are returned left to right. For a
// range of size R the cover has O(log R) nodes, at most two per level.
func BRC(d Domain, lo, hi uint64) ([]Node, error) { return Cover(d, lo, hi, BRCTechnique) }

// brcSplit reads the best range cover of [lo, hi] off the bits of lo and
// e = hi+1, word-RAM style: split is e with the bits below the highest
// bit where lo and e differ cleared, and the cover holds one node per set
// bit of left = split-lo (the left staircase, smallest level first) and
// of right = e-split (the right staircase, largest level first). e wraps
// to 0 only for hi = 2^64-1, where the split bit is bit 64; the whole
// 2^64 domain, whose size does not fit a word, is the one range left out.
func brcSplit(lo, hi uint64) (left, right uint64) {
	e := hi + 1
	mask := ^uint64(0) // split bit 64, for e = 0
	if e != 0 {
		mask = uint64(1)<<(bits.Len64(lo^e)-1) - 1
	}
	return (e &^ mask) - lo, e & mask
}

// size is the node count of t's cover of [lo, hi], in closed form.
func (t Technique) size(lo, hi uint64) int {
	if t == URCTechnique {
		return URCNodeCount(hi - lo + 1)
	}
	left, right := brcSplit(lo, hi)
	return bits.OnesCount64(left) + bits.OnesCount64(right)
}

// appendCover appends t's cover of [lo, hi] to dst, left to right,
// without validating the range. URC splits, from the top level down, the
// leftmost nodes of a level until it holds its canonical count; a split
// at level l moves one unit of 2^l of mass below l, so split[l], the
// number of level-l nodes it splits, is the BRC mass at levels >= l less
// the canonical mass W[l].
func (t Technique) appendCover(dst []Node, lo, hi uint64) []Node {
	left, right := brcSplit(lo, hi)
	var split [64]uint64 // BRC splits nothing
	if t == URCTechnique {
		W := urcMass(hi - lo + 1)
		for l := range split {
			split[l] = left>>l + right>>l - W[l]
		}
	}
	for a := lo; left|right != 0; {
		var l int
		if left != 0 {
			l = bits.TrailingZeros64(left)
			left &^= 1 << l
		} else {
			l = bits.Len64(right) - 1
			right &^= 1 << l
		}
		dst = refine(dst, Node{Level: uint8(l), Start: a}, &split)
		a += 1 << l
	}
	return dst
}
