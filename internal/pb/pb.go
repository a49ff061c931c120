// Package pb reproduces the basic scheme of Li et al., "Fast Range Query
// Processing with Strong Privacy Protection for Cloud Computing"
// (PVLDB'14) — the paper's closest competitor, referred to as PB
// throughout Section 8.
//
// The scheme builds a binary tree over the *data items* (not the domain):
// the root holds all items, every internal node randomly permutes and
// splits its items in two halves, and every node stores a Bloom filter
// over the keyed digests of the dyadic ranges DR(d) covering each item d
// below it. A query is the set of minimal dyadic ranges (BRC) of the
// range, digested once per tree level; the server descends from the root,
// following children whose filters claim to contain any query digest.
//
// Costs (Table 1): storage O(n log n log m), search Ω(log n log R + r),
// query size O(log R) ranges but with one digest per tree level each —
// the "excessive number of cryptographic hash functions" the paper's
// Appendix A calls out. False positives O(r), inherited from the fixed
// per-node Bloom filter rate.
package pb

import (
	"fmt"
	mrand "math/rand"
	"slices"

	"rsse/internal/bloom"
	"rsse/internal/cover"
	"rsse/internal/prf"
)

// DefaultFPR is the per-node Bloom filter false positive rate. Li et al.
// fix this ratio at every node.
const DefaultFPR = 0.01

// DigestSize is the byte length of one trapdoor digest (SHA-1-sized, per
// the paper's implementation notes).
const DigestSize = 20

// Item is one data item: a tuple id and its query-attribute value.
type Item struct {
	ID    uint64
	Value uint64
}

// Client is the owner-side state: the digest key and scheme parameters.
type Client struct {
	key prf.Key
	dom cover.Domain
	fpr float64
	rnd *mrand.Rand
}

// NewClient creates a PB owner for the given domain. fpr <= 0 selects
// DefaultFPR; rnd may be nil for a crypto-seeded source.
func NewClient(dom cover.Domain, fpr float64, rnd *mrand.Rand) (*Client, error) {
	if fpr == 0 {
		fpr = DefaultFPR
	}
	if fpr < 0 || fpr >= 1 {
		return nil, fmt.Errorf("pb: false positive rate %v outside (0,1)", fpr)
	}
	key, err := prf.NewKey(nil)
	if err != nil {
		return nil, err
	}
	if rnd == nil {
		rnd = mrand.New(mrand.NewSource(int64(prf.EvalUint64(key, 0)[0])<<32 | int64(prf.EvalUint64(key, 1)[1])))
	}
	return &Client{key: key, dom: dom, fpr: fpr, rnd: rnd}, nil
}

// Domain returns the query attribute domain.
func (c *Client) Domain() cover.Domain { return c.dom }

// levelKey returns the digest key for one tree level; per-level keys stop
// a digest matching above the level it was issued for.
func (c *Client) levelKey(level int) prf.Key {
	return prf.DeriveN(c.key, "pb/level", uint64(level))
}

// digest computes the keyed digest of a dyadic-range label at a tree level.
func (c *Client) digest(level int, label [cover.LabelSize]byte) []byte {
	v := prf.Eval(c.levelKey(level), label[:])
	out := make([]byte, DigestSize)
	copy(out, v[:DigestSize])
	return out
}

// node is one tree node of the server index.
type node struct {
	bf          *bloom.Filter
	left, right *node
	leafID      uint64
	leaf        bool
}

// Index is the server-side encrypted index.
type Index struct {
	root  *Indexnode
	depth int
	n     int
	size  int
}

// Indexnode aliases the unexported node so Index stays opaque but
// serializable-by-walk in tests.
type Indexnode = node

// Build constructs the PB index: a random permutation of the items and a
// balanced binary split tree with one Bloom filter per node.
func (c *Client) Build(items []Item) (*Index, error) {
	for _, it := range items {
		if !c.dom.Contains(it.Value) {
			return nil, fmt.Errorf("pb: value %d outside domain of size %d", it.Value, c.dom.Size())
		}
	}
	perm := make([]Item, len(items))
	copy(perm, items)
	c.rnd.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	idx := &Index{n: len(items)}
	if len(perm) == 0 {
		return idx, nil
	}
	var build func(items []Item, level int) (*node, error)
	build = func(items []Item, level int) (*node, error) {
		if level > idx.depth {
			idx.depth = level
		}
		// One Bloom filter element per (item, dyadic range) pair.
		elems := len(items) * (int(c.dom.Bits) + 1)
		bf, err := bloom.New(elems, c.fpr)
		if err != nil {
			return nil, err
		}
		// A range holding several items' values is one element, added once.
		values := make([]uint64, len(items))
		for i, it := range items {
			values[i] = it.Value
		}
		slices.Sort(values)
		for _, r := range cover.PathRuns(c.dom, values) {
			bf.Add(c.digest(level, r.Node.Label()))
		}
		idx.size += bf.SizeBytes()
		nd := &node{bf: bf}
		if len(items) == 1 {
			nd.leaf = true
			nd.leafID = items[0].ID
			idx.size += 8
			return nd, nil
		}
		mid := len(items) / 2
		// The random perturbation happened once up front; splitting the
		// permuted slice in half is Li et al.'s random split.
		if nd.left, err = build(items[:mid], level+1); err != nil {
			return nil, err
		}
		if nd.right, err = build(items[mid:], level+1); err != nil {
			return nil, err
		}
		return nd, nil
	}
	root, err := build(perm, 0)
	if err != nil {
		return nil, err
	}
	idx.root = root
	return idx, nil
}

// Digests is one tree level's share of a trapdoor: one digest per
// minimal dyadic range.
type Digests [][]byte

// Trapdoor produces the query: for each minimal dyadic range of [lo, hi]
// (BRC), one digest per tree level. depth is the tree depth the trapdoor
// must reach; use Index.Depth() or a domain-derived bound when measuring
// query size without a dataset (Appendix A does the latter).
func (c *Client) Trapdoor(lo, hi uint64, depth int) ([]Digests, error) {
	nodes, err := cover.BRC(c.dom, lo, hi)
	if err != nil {
		return nil, err
	}
	out := make([]Digests, depth+1)
	for level := 0; level <= depth; level++ {
		out[level] = make(Digests, len(nodes))
		for i, n := range nodes {
			out[level][i] = c.digest(level, n.Label())
		}
	}
	return out, nil
}

// TrapdoorBytes returns the serialized size of a trapdoor in bytes.
func TrapdoorBytes(t []Digests) int {
	n := 0
	for _, level := range t {
		for _, d := range level {
			n += len(d)
		}
	}
	return n
}

// Depth returns the tree depth (root = 0).
func (x *Index) Depth() int { return x.depth }

// Len returns the number of indexed items.
func (x *Index) Len() int { return x.n }

// Size returns the server storage footprint in bytes (Bloom filters plus
// leaf ids).
func (x *Index) Size() int { return x.size }

// Search descends the tree from the root, at each level testing the
// node's Bloom filter against that level's digests, and returns the ids
// at every leaf reached. The result is a superset of the true answer with
// Bloom-rate false positives; it never misses a matching item.
func (x *Index) Search(trapdoor []Digests) []uint64 {
	if x.root == nil {
		return nil
	}
	var out []uint64
	type frame struct {
		nd    *node
		level int
	}
	stack := []frame{{x.root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.level >= len(trapdoor) {
			continue // trapdoor shallower than tree: cannot descend further
		}
		if !f.nd.bf.ContainsAny(trapdoor[f.level]) {
			continue
		}
		if f.nd.leaf {
			out = append(out, f.nd.leafID)
			continue
		}
		stack = append(stack, frame{f.nd.left, f.level + 1}, frame{f.nd.right, f.level + 1})
	}
	return out
}
