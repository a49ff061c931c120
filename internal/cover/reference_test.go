package cover

import (
	"math"
	mrand "math/rand"
	"slices"
	"testing"
)

// The loop covers the word-RAM BRC and URC replaced, kept as references:
// refBRC grows the largest aligned node from the left end, refURC splits
// its output top-down, always the leftmost node of a level, until the
// level counts reach the canonical multiset. Neither validates the
// range, so they also run over 2^63 and 2^64 domains.

func refBRC(d Domain, lo, hi uint64) []Node {
	out := make([]Node, 0, 2*int(d.Bits)+1)
	a := lo
	for {
		// Pick the largest aligned node starting at a that stays within hi.
		l := uint8(0)
		for l < d.Bits {
			sz := uint64(1) << (l + 1)
			if a&(sz-1) != 0 {
				break // a is not aligned to the next level
			}
			if sz-1 > hi-a {
				break // the next level would overshoot hi
			}
			l++
		}
		out = append(out, Node{Level: l, Start: a})
		step := uint64(1) << l
		if hi-a+1 == step {
			return out
		}
		a += step
	}
}

// urcMassVector is urcMass grown as a slice, one entry per level t with
// 2^t <= R.
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

func refURC(d Domain, lo, hi uint64) []Node {
	nodes := refBRC(d, lo, hi)
	W := urcMassVector(hi - lo + 1)
	target := make([]uint64, len(W))
	for l := range target {
		var above uint64
		if l+1 < len(W) {
			above = W[l+1]
		}
		target[l] = W[l] - 2*above
	}
	maxLevel := 0
	for _, n := range nodes {
		maxLevel = max(maxLevel, int(n.Level))
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
	for l := maxLevel; l >= 1; l-- {
		for cur[l] > targetAt(l) {
			i := slices.IndexFunc(nodes, func(n Node) bool { return n.Level == uint8(l) })
			left, right := nodes[i].Children()
			nodes = append(nodes, Node{})
			copy(nodes[i+2:], nodes[i+1:])
			nodes[i], nodes[i+1] = left, right
			cur[l]--
			cur[l-1] += 2
		}
	}
	return nodes
}

// checkAgainstReference compares both covers of [lo, hi] node for node,
// in order, with the references, and the closed-form sizes with them.
func checkAgainstReference(t *testing.T, d Domain, lo, hi uint64) {
	t.Helper()
	for tech, ref := range [...]func(Domain, uint64, uint64) []Node{BRCTechnique: refBRC, URCTechnique: refURC} {
		tech := Technique(tech)
		got, want := tech.appendCover(nil, lo, hi), ref(d, lo, hi)
		if !slices.Equal(got, want) || tech.size(lo, hi) != len(want) {
			t.Fatalf("2^%d %v([%d,%d]) = %v (size %d), reference %v", d.Bits, tech, lo, hi, got, tech.size(lo, hi), want)
		}
	}
}

// TestCoversMatchReference: the word-RAM covers equal the loop covers on
// every range of a 2^10 domain and on random ranges of 2^63 and 2^64
// domains, whose sizes spread over every bit length. The whole 2^64
// domain, whose size does not fit a word, is the one range left out.
func TestCoversMatchReference(t *testing.T) {
	d := Domain{Bits: 10}
	for lo := uint64(0); lo < d.Size(); lo++ {
		for hi := lo; hi < d.Size(); hi++ {
			checkAgainstReference(t, d, lo, hi)
		}
	}
	rnd := mrand.New(mrand.NewSource(46))
	for _, bits := range []uint8{63, 64} {
		d := Domain{Bits: bits}
		last := uint64(math.MaxUint64) >> (64 - bits)
		for range 100_000 {
			R := rnd.Uint64() >> rnd.Intn(64) & last // hi - lo
			if R == math.MaxUint64 {
				continue
			}
			lo := rnd.Uint64() & last
			if n := last - R + 1; n != 0 { // n = 2^64 for R = 0
				lo %= n
			}
			checkAgainstReference(t, d, lo, lo+R)
		}
	}
}

// TestURCMassMatchesReference: the fixed-array mass vector equals the
// slice one, and is zero past it.
func TestURCMassMatchesReference(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(47))
	for i := range 100_000 {
		R := uint64(i + 1)
		if i >= 5000 {
			R = rnd.Uint64()>>rnd.Intn(64) | 1
		}
		W, want := urcMass(R), urcMassVector(R)
		if !slices.Equal(W[:len(want)], want) || slices.ContainsFunc(W[len(want):], func(w uint64) bool { return w != 0 }) {
			t.Fatalf("urcMass(%d) = %v, reference %v", R, W, want)
		}
	}
}

// TestPlanBatchNodesSortedUnique: a batch's union is strictly increasing
// in SortNodes order.
func TestPlanBatchNodesSortedUnique(t *testing.T) {
	d := Domain{Bits: 16}
	rnd := mrand.New(mrand.NewSource(48))
	for range 200 {
		base := rnd.Uint64() % (d.Size() - 2048)
		ranges := make([]Interval, 1+rnd.Intn(64))
		for i := range ranges {
			w := 64 + rnd.Uint64()%448
			lo := base + rnd.Uint64()%(2048-w)
			ranges[i] = Interval{Lo: lo, Hi: lo + w - 1}
		}
		for _, tech := range []Technique{BRCTechnique, URCTechnique} {
			p, err := PlanBatch(d, ranges, tech)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < len(p.Nodes); k++ {
				if compareNodes(p.Nodes[k-1], p.Nodes[k]) >= 0 {
					t.Fatalf("%v over %d ranges: Nodes[%d] = %v after %v", tech, len(ranges), k, p.Nodes[k], p.Nodes[k-1])
				}
			}
		}
	}
}

// TestDedupKeysMatchCompare: on a keyed domain dedup sorts and searches
// nodeKey's ints; the plan is the one compareNodes' sort and search
// give — the same union in the same order, the same indexes per range —
// for BRC, URC and SRC batches (SRC's TDAG windows are not aligned) on
// the 2^16 domain and on 2^56, the widest keyed one. nodeKey is
// compareNodes' order and keyNode its inverse at the extremes of that
// domain, and 2^57 is the first domain that falls back to the compare.
func TestDedupKeysMatchCompare(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(49))
	for _, bits := range []uint8{16, 56} {
		d := Domain{Bits: bits}
		if !d.keyed() {
			t.Fatalf("2^%d is not keyed", bits)
		}
		for range 200 {
			base := rnd.Uint64() % (d.Size() - 2048)
			ranges := make([]Interval, 2+rnd.Intn(63))
			for i := range ranges {
				w := 1 + rnd.Uint64()%511
				lo := base + rnd.Uint64()%(2048-w)
				ranges[i] = Interval{Lo: lo, Hi: lo + w - 1}
			}
			for _, tech := range []Technique{BRCTechnique, URCTechnique} {
				var covers []Node
				for _, r := range ranges {
					covers = tech.appendCover(covers, r.Lo, r.Hi)
				}
				checkDedupKeys(t, covers, ranges, tech.size)
			}
			var covers []Node
			for _, r := range ranges {
				n, err := NewTDAG(d).SRC(r.Lo, r.Hi)
				if err != nil {
					t.Fatal(err)
				}
				covers = append(covers, n)
			}
			checkDedupKeys(t, covers, ranges, func(uint64, uint64) int { return 1 })
		}
	}
	top := Domain{Bits: 56}
	edge := []Node{{0, 0}, {1, 0}, {0, 1}, {56, 0}, {0, top.Size() - 1}, {55, top.Size() / 2}, {1, top.Size() - 2}}
	slices.SortFunc(edge, compareNodes)
	for k, n := range edge {
		if keyNode(nodeKey(n)) != n {
			t.Fatalf("keyNode(nodeKey(%v)) = %v", n, keyNode(nodeKey(n)))
		}
		if k > 0 && nodeKey(edge[k-1]) >= nodeKey(n) {
			t.Fatalf("nodeKey(%v) = %d does not follow nodeKey(%v) = %d", n, nodeKey(n), edge[k-1], nodeKey(edge[k-1]))
		}
	}
	if (Domain{Bits: 57}).keyed() || (Domain{Bits: MaxBits}).keyed() {
		t.Fatal("a domain past 2^56 is keyed: its keys overflow an int")
	}
}

func checkDedupKeys(t *testing.T, covers []Node, ranges []Interval, size func(lo, hi uint64) int) {
	t.Helper()
	grow := func() []Node { return append(make([]Node, 0, 2*len(covers)), covers...) }
	keyed, compared := dedup(grow(), ranges, size, true), dedup(grow(), ranges, size, false)
	if !slices.Equal(keyed.Nodes, compared.Nodes) || keyed.Total != compared.Total ||
		!slices.EqualFunc(keyed.PerRange, compared.PerRange, slices.Equal) {
		t.Fatalf("keyed dedup of %d nodes over %d ranges diverges from compareNodes': %d vs %d unique", len(covers), len(ranges), len(keyed.Nodes), len(compared.Nodes))
	}
}
