// Package cover implements the range-covering machinery of the paper:
// dyadic nodes over a power-of-two domain, the Best Range Cover (BRC) and
// Uniform Range Cover (URC) techniques (Section 2.2), and the TDAG
// (tree-like directed acyclic graph) with its Single Range Cover (SRC)
// (Section 6.2, Lemma 1).
//
// All schemes in the module reduce range search to keyword search by
// labelling nodes produced by these techniques.
package cover

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// MaxBits is the largest supported domain exponent. Domains hold values in
// [0, 2^Bits); 62 keeps every size and offset computation inside a uint64.
const MaxBits = 62

// LabelSize is the byte length of a node label: 1 level byte plus the
// 8-byte big-endian start offset.
const LabelSize = 9

// Domain is the query-attribute domain A = {0, ..., 2^Bits - 1}. The paper
// assumes positive integer domains; arbitrary discrete domains are mapped
// onto the next power of two (Section 3, footnote 2).
type Domain struct {
	Bits uint8
}

// NewDomain returns the domain {0..2^bits-1}.
func NewDomain(bits uint8) (Domain, error) {
	if bits > MaxBits {
		return Domain{}, fmt.Errorf("cover: domain bits %d exceeds maximum %d", bits, MaxBits)
	}
	return Domain{Bits: bits}, nil
}

// FitDomain returns the smallest domain containing maxValue.
func FitDomain(maxValue uint64) Domain {
	b := uint8(bits.Len64(maxValue))
	if maxValue == 0 {
		b = 0
	}
	return Domain{Bits: b}
}

// Size returns m = 2^Bits, the number of domain values.
func (d Domain) Size() uint64 { return 1 << d.Bits }

// Contains reports whether v lies in the domain.
func (d Domain) Contains(v uint64) bool { return v < d.Size() }

// Root returns the node covering the entire domain.
func (d Domain) Root() Node { return Node{Level: d.Bits, Start: 0} }

// CheckRange validates that lo <= hi and both lie in the domain.
func (d Domain) CheckRange(lo, hi uint64) error {
	if lo > hi {
		return fmt.Errorf("cover: empty range [%d, %d]", lo, hi)
	}
	if !d.Contains(hi) {
		return fmt.Errorf("cover: range [%d, %d] exceeds domain of size %d", lo, hi, d.Size())
	}
	return nil
}

// Node identifies a subtree/window over the domain: the interval
// [Start, Start + 2^Level - 1]. Binary-tree nodes have Start aligned to
// 2^Level; TDAG windows relax the alignment to 2^(Level-1).
type Node struct {
	Level uint8
	Start uint64
}

// Size returns the number of domain values the node covers.
func (n Node) Size() uint64 { return 1 << n.Level }

// End returns the inclusive upper bound of the node's interval.
func (n Node) End() uint64 { return n.Start + n.Size() - 1 }

// Contains reports whether the node's interval contains v.
func (n Node) Contains(v uint64) bool { return v >= n.Start && v <= n.End() }

// ContainsRange reports whether the node's interval contains [lo, hi].
func (n Node) ContainsRange(lo, hi uint64) bool { return n.Start <= lo && hi <= n.End() }

// Children splits a node into its two half-size children. It panics on a
// leaf; callers check Level first.
func (n Node) Children() (left, right Node) {
	if n.Level == 0 {
		panic("cover: leaf node has no children")
	}
	half := n.Size() / 2
	return Node{Level: n.Level - 1, Start: n.Start},
		Node{Level: n.Level - 1, Start: n.Start + half}
}

// Label returns the canonical keyword label for the node. Labels are what
// the schemes feed to the PRF; two distinct nodes never share a label.
func (n Node) Label() [LabelSize]byte {
	var l [LabelSize]byte
	l[0] = n.Level
	binary.BigEndian.PutUint64(l[1:], n.Start)
	return l
}

// Keyword returns the label as a string, suitable as a map key.
func (n Node) Keyword() string {
	l := n.Label()
	return string(l[:])
}

// NodeFromLabel parses a label produced by Label.
func NodeFromLabel(l [LabelSize]byte) Node {
	return Node{Level: l[0], Start: binary.BigEndian.Uint64(l[1:])}
}

// String renders the node in the paper's style, e.g. "N2,5" for [2,5].
func (n Node) String() string {
	if n.Level == 0 {
		return fmt.Sprintf("N%d", n.Start)
	}
	return fmt.Sprintf("N%d,%d", n.Start, n.End())
}

// Run is the keys[Lo:Hi] of ascending keys that Node holds: a keyword's
// posting list when the keys are the values of tuples sorted by value.
type Run struct {
	Node   Node
	Lo, Hi int
}

// PathRuns returns the run of every binary-tree node over d that holds
// one of keys, which ascend, level by level in key order. A value's
// nodes are its root-to-leaf path, the dyadic ranges DR(v) that a tuple
// is replicated under in Logarithmic-BRC/URC (Section 6.1).
func PathRuns(d Domain, keys []uint64) []Run {
	var runs []Run
	for l := uint8(0); l <= d.Bits; l++ {
		runs = appendRuns(runs, keys, l, 0, d.Size())
	}
	return runs
}

// LeafRuns returns the run of each distinct key of keys, which ascend:
// the leaves that hold them.
func LeafRuns(keys []uint64) []Run { return appendRuns(nil, keys, 0, 0, math.MaxUint64) }

// appendRuns appends, in key order, the run of every level-l node that
// holds one of keys: the windows of 2^l values starting at off plus a
// multiple of 2^l that end inside a domain of m values. Off is 0 for the
// binary tree's nodes and 2^(l-1) for the TDAG's injected ones.
func appendRuns(runs []Run, keys []uint64, l uint8, off, m uint64) []Run {
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		if v := keys[lo]; v >= off {
			n := Node{Level: l, Start: (v-off)>>l<<l + off}
			for hi < len(keys) && keys[hi] <= n.End() {
				hi++
			}
			if n.End() < m {
				runs = append(runs, Run{n, lo, hi})
			}
		}
		lo = hi
	}
	return runs
}

// TotalNodes returns the number of nodes in the full binary tree over d
// (2m - 1). Useful for sizing estimates in tests and docs.
func TotalNodes(d Domain) uint64 { return 2*d.Size() - 1 }
