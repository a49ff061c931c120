package core

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/sse"
)

// BenchmarkBuildIndex times one 20,000-tuple Logarithmic-URC build over
// a 16-bit domain on the Basic construction, the shape of one
// batch_cluster build (suite 3): the tuple store, the value-ordered
// plan, the stags, the seal and the radix placement of the records.
func BenchmarkBuildIndex(b *testing.B) {
	tuples := uniformTuples(20000, 16, 7)
	b.ReportAllocs()
	for range b.N {
		c, err := NewClient(LogarithmicURC, cover.Domain{Bits: 16}, testOptions(7))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.BuildIndex(tuples); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildIndexAllocs holds a seeded 2,000-tuple build of every kind to
// its mallocs per tuple, each ceiling about 10% above its count. A
// build allocates per array, not per tuple or per posting: the tuple
// store reuses one ciphertext buffer, every posting list is a run of one
// id array, and the seal works in backing arrays. A per-tuple key
// schedule, IV read or key buffer would add one a tuple, and a
// per-posting payload slice about log m.
func TestBuildIndexAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	const n = 2000
	for _, tc := range []struct {
		kind    Kind
		bits    uint8
		ceiling float64
	}{
		{Quadratic, 4, 0.12},
		{ConstantBRC, 16, 0.03},
		{ConstantURC, 16, 0.03},
		{LogarithmicBRC, 16, 6.9}, // suite 0: an AES key schedule per keyword, in the seal
		{LogarithmicURC, 16, 0.046},
		{LogarithmicSRC, 16, 0.067},
		{LogarithmicSRCi, 16, 0.106},
	} {
		tuples := uniformTuples(n, tc.bits, 41)
		c, err := NewClient(tc.kind, cover.Domain{Bits: tc.bits}, testOptions(41))
		if err != nil {
			t.Fatal(err)
		}
		perTuple := testing.AllocsPerRun(3, func() {
			if _, err := c.BuildIndex(tuples); err != nil {
				t.Fatal(err)
			}
		}) / n
		t.Logf("%v: %.4f mallocs per tuple", tc.kind, perTuple)
		if perTuple > tc.ceiling {
			t.Errorf("%v: %.4f mallocs per tuple, want <= %.2f", tc.kind, perTuple, tc.ceiling)
		}
	}
}

// TestBuildListsMatchReference: in a built index of every kind, each
// keyword's posting list holds exactly the ids whose value lies in the
// keyword's interval — every dyadic node, TDAG window, leaf and range of
// the domain, empty ones included. SRC-i's pair index holds each
// distinct value's position range in the value order, and its position
// index one id per position, consistent with those ranges, with every
// TDAG window the union of its positions.
func TestBuildListsMatchReference(t *testing.T) {
	const bits = 6
	dom := cover.Domain{Bits: bits}
	tuples := uniformTuples(150, bits, 9) // 150 values over 64: ties and gaps
	// want is the ids whose value lies in [lo, hi], ascending.
	want := func(lo, hi Value) []ID {
		var ids []ID
		for _, tp := range tuples {
			if lo <= tp.Value && tp.Value <= hi {
				ids = append(ids, tp.ID)
			}
		}
		slices.Sort(ids)
		return ids
	}
	// search is the ids idx stores under stag, ascending.
	search := func(t *testing.T, idx sse.Index, stag sse.Stag) []ID {
		t.Helper()
		data, _, err := idx.Search([]sse.Stag{stag}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return idsOf(data)
	}
	// tdag is every node of the TDAG over d.
	tdag := func(d cover.Domain) []cover.Node {
		var nodes []cover.Node
		for l := uint8(0); l <= d.Bits; l++ {
			step := max(uint64(1)<<l/2, 1)
			for start := uint64(0); start+uint64(1)<<l <= d.Size(); start += step {
				nodes = append(nodes, cover.Node{Level: l, Start: start})
			}
		}
		return nodes
	}
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := NewClient(kind, dom, testOptions(9))
			if err != nil {
				t.Fatal(err)
			}
			x, err := c.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			s := newStagger(c.suite, c.kSSE)
			defer s.release()
			check := func(what any, got, want []ID) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("%v: list %v, want %v", what, got, want)
				}
			}
			switch kind {
			case Quadratic:
				h := prf.GetHasher(c.kSSE)
				defer prf.PutHasher(h)
				for lo := Value(0); lo < dom.Size(); lo++ {
					for hi := lo; hi < dom.Size(); hi++ {
						q := Range{Lo: lo, Hi: hi}
						check(q, search(t, x.primary, rangeStag(h, q)), want(lo, hi))
					}
				}
			case ConstantBRC, ConstantURC:
				for v := Value(0); v < dom.Size(); v++ {
					trap, err := c.Trapdoor(Range{Lo: v, Hi: v})
					if err != nil {
						t.Fatal(err)
					}
					resp, err := x.SearchContext(context.Background(), trap)
					if err != nil {
						t.Fatal(err)
					}
					check(v, idsOf(resp.Data), want(v, v))
				}
			case LogarithmicBRC, LogarithmicURC:
				for l := uint8(0); l <= bits; l++ {
					for start := uint64(0); start < dom.Size(); start += 1 << l {
						n := cover.Node{Level: l, Start: start}
						check(n, search(t, x.primary, s.node(n)), want(n.Start, n.End()))
					}
				}
			case LogarithmicSRC:
				for _, n := range tdag(dom) {
					check(n, search(t, x.primary, s.node(n)), want(n.Start, n.End()))
				}
			case LogarithmicSRCi:
				checkSRCiLists(t, c, x, tuples, tdag)
			}
		})
	}
}

// checkSRCiLists is TestBuildListsMatchReference's SRC-i case.
func checkSRCiLists(t *testing.T, c *Client, x *Index, tuples []Tuple, tdag func(cover.Domain) []cover.Node) {
	// below[v] is how many tuples have a value under v: v's positions
	// start there.
	below := make([]uint64, c.dom.Size()+1)
	valueOf := make(map[ID]Value, len(tuples))
	for _, tp := range tuples {
		below[tp.Value+1]++
		valueOf[tp.ID] = tp.Value
	}
	for v := 1; v < len(below); v++ {
		below[v] += below[v-1]
	}
	s := newStagger(c.suite, c.kSSE)
	defer s.release()
	pc := &pairCipher{block: c.pairBlock}
	for _, n := range tdag(c.dom) {
		data, _, err := x.aux.Search([]sse.Stag{s.node(n)}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []valuePair
		for k := 0; k < len(data); k += pairWidth {
			p, err := pc.open(data[k : k+pairWidth])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, p)
		}
		for v := n.Start; v <= n.End(); v++ {
			if below[v+1] > below[v] {
				want = append(want, valuePair{value: v, posLo: below[v], posHi: below[v+1] - 1})
			}
		}
		slices.SortFunc(got, func(a, b valuePair) int { return int(a.value) - int(b.value) })
		if !slices.Equal(got, want) {
			t.Fatalf("pairs of %v: %v, want %v", n, got, want)
		}
	}

	s2 := newStagger(c.suite, c.kSSE2)
	defer s2.release()
	pos := cover.Domain{Bits: x.posBits}
	at := make([]ID, len(tuples)) // the id at each position
	for p := range pos.Size() {
		data, _, err := x.primary.Search([]sse.Stag{s2.node(cover.Node{Start: p})}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids := idsOf(data)
		if p >= uint64(len(tuples)) {
			if len(ids) != 0 {
				t.Fatalf("position %d past the tuples holds %v", p, ids)
			}
			continue
		}
		if len(ids) != 1 {
			t.Fatalf("position %d holds %v, want one id", p, ids)
		}
		if v := valueOf[ids[0]]; p < below[v] || p >= below[v+1] {
			t.Fatalf("position %d holds id %d of value %d, whose positions are [%d, %d)", p, ids[0], v, below[v], below[v+1])
		}
		at[p] = ids[0]
	}
	for _, n := range tdag(pos) {
		data, _, err := x.primary.Search([]sse.Stag{s2.node(n)}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(at[min(n.Start, uint64(len(at))):min(n.End()+1, uint64(len(at)))])
		slices.Sort(want)
		if got := idsOf(data); !slices.Equal(got, want) {
			t.Fatalf("positions %v: ids %v, want %v", n, got, want)
		}
	}
}

// sortedIDs reads 8-byte big-endian ids and sorts them.
func idsOf(data []byte) []ID {
	var ids []ID
	for k := 0; k+8 <= len(data); k += 8 {
		ids = append(ids, binary.BigEndian.Uint64(data[k:]))
	}
	slices.Sort(ids)
	return ids
}
