package core

import (
	"context"
	mrand "math/rand"
	"reflect"
	"sort"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
)

// TestTokenCountsPerScheme checks the "Query Size" column of Table 1 at
// the protocol level: single tokens for Quadratic/SRC, two for SRC-i,
// O(log R) covers otherwise.
func TestTokenCountsPerScheme(t *testing.T) {
	dom := cover.Domain{Bits: 12}
	tuples := uniformTuples(300, 12, 19)
	q := Range{100, 1123} // R = 1024
	for _, kind := range nonQuadraticKinds() {
		c, err := NewClient(kind, dom, testOptions(20))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.QueryContext(context.Background(), idx, q)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case LogarithmicSRC:
			if res.Stats.Tokens != 1 || res.Stats.Rounds != 1 {
				t.Errorf("%v: tokens=%d rounds=%d", kind, res.Stats.Tokens, res.Stats.Rounds)
			}
		case LogarithmicSRCi:
			if res.Stats.Tokens != 2 || res.Stats.Rounds != 2 {
				t.Errorf("%v: tokens=%d rounds=%d", kind, res.Stats.Tokens, res.Stats.Rounds)
			}
		case ConstantBRC, LogarithmicBRC:
			brc, _ := cover.BRC(dom, q.Lo, q.Hi)
			if res.Stats.Tokens != len(brc) {
				t.Errorf("%v: tokens=%d, BRC cover=%d", kind, res.Stats.Tokens, len(brc))
			}
		case ConstantURC, LogarithmicURC:
			if res.Stats.Tokens != cover.URCNodeCount(q.Size()) {
				t.Errorf("%v: tokens=%d, URC count=%d", kind, res.Stats.Tokens, cover.URCNodeCount(q.Size()))
			}
		}
	}
}

// TestURCTokenPositionIndependence verifies, end to end, the property URC
// buys: queries of equal size at different positions produce token
// multisets (count and, for Constant, level multiset) that are identical,
// whereas BRC's generally differ.
func TestURCTokenPositionIndependence(t *testing.T) {
	dom := cover.Domain{Bits: 12}
	tuples := uniformTuples(100, 12, 21)
	const R = 333
	positions := []uint64{0, 1, 37, 500, 1000, 2048, 3000, 3763}

	countsByKind := map[Kind]map[int]bool{}
	for _, kind := range []Kind{ConstantURC, LogarithmicURC, ConstantBRC, LogarithmicBRC} {
		opts := testOptions(22)
		opts.AllowIntersecting = true
		c, err := NewClient(kind, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]bool{}
		var urcLevels [][]uint8
		for _, lo := range positions {
			res, err := c.QueryContext(context.Background(), idx, Range{lo, lo + R - 1})
			if err != nil {
				t.Fatal(err)
			}
			counts[res.Stats.Tokens] = true
			if kind == ConstantURC {
				lv := append([]uint8(nil), res.Stats.TokenLevels...)
				sort.Slice(lv, func(i, j int) bool { return lv[i] < lv[j] })
				urcLevels = append(urcLevels, lv)
			}
		}
		countsByKind[kind] = counts
		if kind == ConstantURC {
			for i := 1; i < len(urcLevels); i++ {
				if !reflect.DeepEqual(urcLevels[i], urcLevels[0]) {
					t.Errorf("ConstantURC leaked position via token levels: %v vs %v",
						urcLevels[i], urcLevels[0])
				}
			}
		}
	}
	for _, kind := range []Kind{ConstantURC, LogarithmicURC} {
		if len(countsByKind[kind]) != 1 {
			t.Errorf("%v: token count varies with position: %v", kind, countsByKind[kind])
		}
	}
	// BRC *should* vary for this R (it does for R=333 across these
	// positions) — this is exactly the leakage URC removes.
	if len(countsByKind[LogarithmicBRC]) == 1 {
		t.Log("note: BRC token count did not vary across sampled positions")
	}
}

// TestGroupsPartitionRawResults: the per-token groups leaked by the
// Logarithmic/Constant schemes must partition the raw result set.
func TestGroupsPartitionRawResults(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	tuples := uniformTuples(500, 10, 23)
	q := Range{37, 801}
	for _, kind := range []Kind{ConstantBRC, ConstantURC, LogarithmicBRC, LogarithmicURC} {
		c, err := NewClient(kind, dom, testOptions(24))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.QueryContext(context.Background(), idx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats.Groups) != res.Stats.Tokens {
			t.Errorf("%v: %d groups for %d tokens", kind, len(res.Stats.Groups), res.Stats.Tokens)
		}
		sum := 0
		for _, g := range res.Stats.Groups {
			sum += g
		}
		if sum != len(res.Raw) {
			t.Errorf("%v: group sizes sum to %d, raw has %d", kind, sum, len(res.Raw))
		}
	}
}

// TestLogSRCSingleGroup: Logarithmic-SRC must return one undivided group —
// the absence of result partitioning is its security advantage.
func TestLogSRCSingleGroup(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	tuples := uniformTuples(300, 10, 25)
	c, err := NewClient(LogarithmicSRC, dom, testOptions(26))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryContext(context.Background(), idx, Range{100, 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Groups) != 1 {
		t.Errorf("Logarithmic-SRC produced %d groups", len(res.Stats.Groups))
	}
}

// TestSearchPatternDeterminism: issuing the same range twice produces the
// same stag set (the search pattern the SSE definitions leak), while two
// different ranges with the same cover size produce disjoint stags —
// on a suite-0 Logarithmic-BRC index, whose stags are HMAC, and on a
// suite-3 Logarithmic-URC index, whose stags are F. Either way the stags
// are the index's: the range answers its exact ids.
func TestSearchPatternDeterminism(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	tuples := uniformTuples(200, 10, 26)
	for _, tc := range []struct {
		kind  Kind
		suite prf.Suite
	}{{LogarithmicBRC, prf.SuiteSHA512}, {LogarithmicURC, prf.SuiteBlockPad}} {
		c, err := NewClient(tc.kind, dom, testOptions(27))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if meta, _ := idx.MetaContext(context.Background()); meta.Suite != tc.suite {
			t.Fatalf("%v built suite %v, want %v", tc.kind, meta.Suite, tc.suite)
		}
		stagSet := func(q Range) map[[32]byte]bool {
			p, err := c.freshRound1([]Range{q}, tc.suite)
			if err != nil {
				t.Fatal(err)
			}
			td := p.trap
			resp, err := idx.SearchContext(context.Background(), td)
			if err != nil {
				t.Fatal(err)
			}
			res := &Result{}
			if p.demux(resp, []*Result{res}); !idsEqual(sortedIDs(res.Raw), exactIDs(tuples, q)) {
				t.Fatalf("%v: %v answered %v, want %v", tc.kind, q, sortedIDs(res.Raw), exactIDs(tuples, q))
			}
			out := make(map[[32]byte]bool)
			for _, s := range td.Stags {
				out[[32]byte(s)] = true
			}
			return out
		}
		a := stagSet(Range{100, 200})
		b := stagSet(Range{100, 200})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same range produced different stag sets", tc.kind)
		}
		cSet := stagSet(Range{400, 500})
		for s := range cSet {
			if a[s] {
				t.Errorf("%v: disjoint ranges share a stag", tc.kind)
			}
		}
	}
}

// TestLogSRCSkewFalsePositives reproduces the paper's Section 6.2
// example: under heavy skew a tiny query drags in nearly the whole
// dataset for Logarithmic-SRC, while Logarithmic-SRC-i caps the damage.
func TestLogSRCSkewFalsePositives(t *testing.T) {
	dom := cover.Domain{Bits: 3} // the paper's domain {0..7}
	// One matching tuple at value 4; everything else piled on value 2.
	tuples := skewedTuples(64, 2, map[ID]Value{1: 4})
	q := Range{3, 5}

	cSRC, err := NewClient(LogarithmicSRC, dom, testOptions(28))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cSRC.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cSRC.QueryContext(context.Background(), idx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(sortedIDs(res.Matches), []ID{1}) {
		t.Fatalf("SRC matches = %v", res.Matches)
	}
	// SRC covers [3,5] with N2,5, which contains the hot value 2: the
	// whole dataset comes back.
	if res.Stats.FalsePositives != 63 {
		t.Errorf("SRC false positives = %d, want 63", res.Stats.FalsePositives)
	}

	cSRCi, err := NewClient(LogarithmicSRCi, dom, testOptions(29))
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := cSRCi.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cSRCi.QueryContext(context.Background(), idx2, q)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(sortedIDs(res2.Matches), []ID{1}) {
		t.Fatalf("SRC-i matches = %v", res2.Matches)
	}
	if res2.Stats.FalsePositives >= res.Stats.FalsePositives {
		t.Errorf("SRC-i (%d FPs) did not improve on SRC (%d FPs)",
			res2.Stats.FalsePositives, res.Stats.FalsePositives)
	}
	// Lemma 1 on the position TDAG: raw results <= 4 * max(r, 1).
	if len(res2.Raw) > 4 {
		t.Errorf("SRC-i raw results %d exceed the 4r bound", len(res2.Raw))
	}
}

// TestSRCiFalsePositiveBound checks the O(R + r) claim across random
// workloads: raw results never exceed 4x the match count (plus the
// window-alignment slack for r = 0 after round 1 qualified).
func TestSRCiFalsePositiveBound(t *testing.T) {
	dom := cover.Domain{Bits: 11}
	tuples := uniformTuples(700, 11, 31)
	c, err := NewClient(LogarithmicSRCi, dom, testOptions(32))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		R := uint64(1) + rnd.Uint64()%1024
		lo := rnd.Uint64() % (dom.Size() - R)
		res, err := c.QueryContext(context.Background(), idx, Range{lo, lo + R - 1})
		if err != nil {
			t.Fatal(err)
		}
		if r := len(res.Matches); r > 0 && len(res.Raw) > 4*r {
			t.Fatalf("raw %d > 4r = %d for query [%d,%d]", len(res.Raw), 4*r, lo, lo+R-1)
		}
	}
}

// TestLogSRCWindowBound: on uniform data, SRC false positives stay within
// the Lemma 1 envelope — raw results are at most the tuples of a 4R
// window, which for uniform data is ~4x the matches (we allow 8x slack
// for sampling noise).
func TestLogSRCUniformFalsePositives(t *testing.T) {
	dom := cover.Domain{Bits: 12}
	tuples := uniformTuples(2000, 12, 35)
	c, err := NewClient(LogarithmicSRC, dom, testOptions(36))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		R := uint64(64) + rnd.Uint64()%512
		lo := rnd.Uint64() % (dom.Size() - R)
		q := Range{lo, lo + R - 1}
		res, err := c.QueryContext(context.Background(), idx, q)
		if err != nil {
			t.Fatal(err)
		}
		// Verify against the actual SRC window: raw must be exactly the
		// tuples inside the window.
		node, err := cover.NewTDAG(dom).SRC(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		want := exactIDs(tuples, Range{node.Start, node.End()})
		if !idsEqual(sortedIDs(res.Raw), want) {
			t.Fatalf("raw result is not exactly the SRC window content")
		}
	}
}

// TestSRCiRound1CountsDistinctValues: the size of I1's answer equals the
// number of distinct values in the SRC window — the extra leakage the
// qualitative comparison of Section 6.3 describes.
func TestSRCiRound1LeaksDistinctValues(t *testing.T) {
	dom := cover.Domain{Bits: 8}
	tuples := []Tuple{
		{ID: 1, Value: 10}, {ID: 2, Value: 10}, {ID: 3, Value: 10},
		{ID: 4, Value: 12}, {ID: 5, Value: 13}, {ID: 6, Value: 200},
	}
	c, err := NewClient(LogarithmicSRCi, dom, testOptions(38))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	q := Range{9, 14}
	node, err := cover.NewTDAG(dom).SRC(q.Lo, q.Hi)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[Value]bool{}
	for _, tu := range tuples {
		if tu.Value >= node.Start && tu.Value <= node.End() {
			distinct[tu.Value] = true
		}
	}
	res, err := c.QueryContext(context.Background(), idx, q)
	if err != nil {
		t.Fatal(err)
	}
	round1Items := res.Stats.ResponseItems - len(res.Raw)
	if round1Items != len(distinct) {
		t.Errorf("round-1 items = %d, distinct values in window = %d", round1Items, len(distinct))
	}
}
