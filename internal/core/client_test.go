package core

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"sort"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// testOptions returns deterministic options for reproducible tests.
func testOptions(seed int64) Options {
	return Options{
		SSE:       sse.Basic{},
		Rand:      mrand.New(mrand.NewSource(seed)),
		MasterKey: bytes.Repeat([]byte{byte(seed)}, 32),
	}
}

// uniformTuples draws n tuples uniformly over a bits-wide domain.
func uniformTuples(n int, bits uint8, seed int64) []Tuple {
	rnd := mrand.New(mrand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % (1 << bits)}
	}
	return out
}

// skewedTuples concentrates all but a few tuples on a single hot value —
// the adversarial case of Section 6.2's false positive discussion.
func skewedTuples(n int, hot Value, outliers map[ID]Value) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		id := uint64(i + 1)
		v := hot
		if ov, ok := outliers[id]; ok {
			v = ov
		}
		out[i] = Tuple{ID: id, Value: v}
	}
	return out
}

// exactIDs is the plaintext oracle.
func exactIDs(tuples []Tuple, q Range) []ID {
	var out []ID
	for _, t := range tuples {
		if q.Contains(t.Value) {
			out = append(out, t.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(ids []ID) []ID {
	out := append([]ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nonQuadraticKinds are the schemes usable on realistic domains.
func nonQuadraticKinds() []Kind {
	return []Kind{
		ConstantBRC, ConstantURC,
		LogarithmicBRC, LogarithmicURC,
		LogarithmicSRC, LogarithmicSRCi,
	}
}

// TestAllSchemesAllSSEConstructions smoke-tests the black-box claim: every
// scheme must work unchanged over each SSE construction.
func TestAllSchemesAllSSEConstructions(t *testing.T) {
	dom := cover.Domain{Bits: 8}
	tuples := uniformTuples(120, 8, 5)
	r := Range{40, 90}
	want := exactIDs(tuples, r)
	for _, s := range []sse.Scheme{sse.Basic{}, sse.Packed{BlockSize: 4}, sse.TSet{BucketCapacity: 128, Expansion: 1.3}} {
		for _, kind := range nonQuadraticKinds() {
			opts := testOptions(3)
			opts.SSE = s
			c, err := NewClient(kind, dom, opts)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := c.BuildIndex(tuples)
			if err != nil {
				t.Fatalf("%v over %s: %v", kind, s.Name(), err)
			}
			res, err := c.QueryContext(context.Background(), idx, r)
			if err != nil {
				t.Fatalf("%v over %s: %v", kind, s.Name(), err)
			}
			if !idsEqual(sortedIDs(res.Matches), want) {
				t.Errorf("%v over %s: wrong result", kind, s.Name())
			}
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	dom := cover.Domain{Bits: 8}
	for _, kind := range nonQuadraticKinds() {
		c, err := NewClient(kind, dom, testOptions(4))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(nil)
		if err != nil {
			t.Fatalf("%v: empty build: %v", kind, err)
		}
		res, err := c.QueryContext(context.Background(), idx, Range{0, 255})
		if err != nil {
			t.Fatalf("%v: query empty index: %v", kind, err)
		}
		if len(res.Matches) != 0 || len(res.Raw) != 0 {
			t.Errorf("%v: empty index returned results", kind)
		}
	}
}

func TestEmptyResultRange(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	// All values in the upper half; query the lower half.
	tuples := make([]Tuple, 50)
	for i := range tuples {
		tuples[i] = Tuple{ID: uint64(i + 1), Value: 512 + uint64(i)}
	}
	for _, kind := range nonQuadraticKinds() {
		c, err := NewClient(kind, dom, testOptions(5))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.QueryContext(context.Background(), idx, Range{0, 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 0 {
			t.Errorf("%v: expected empty result, got %d", kind, len(res.Matches))
		}
		if kind == LogarithmicSRCi && res.Stats.Rounds != 1 {
			// No qualifying pair: SRC-i must stop after round 1. (The SRC
			// window may still surface pairs from outside the query.)
			if res.Stats.Rounds == 2 && res.Stats.ResponseItems == 0 {
				t.Errorf("SRC-i went to round 2 with nothing to fetch")
			}
		}
	}
}

func TestSingleValueDomain(t *testing.T) {
	dom := cover.Domain{Bits: 0}
	tuples := []Tuple{{ID: 1, Value: 0}, {ID: 2, Value: 0}}
	for _, kind := range append(nonQuadraticKinds(), Quadratic) {
		c, err := NewClient(kind, dom, testOptions(6))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		res, err := c.QueryContext(context.Background(), idx, Range{0, 0})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !idsEqual(sortedIDs(res.Matches), []ID{1, 2}) {
			t.Errorf("%v: got %v", kind, res.Matches)
		}
	}
}

func TestFullDomainQuery(t *testing.T) {
	dom := cover.Domain{Bits: 9}
	tuples := uniformTuples(100, 9, 7)
	for _, kind := range nonQuadraticKinds() {
		c, err := NewClient(kind, dom, testOptions(7))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.QueryContext(context.Background(), idx, Range{0, dom.Size() - 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != len(tuples) {
			t.Errorf("%v: full-domain query returned %d of %d", kind, len(res.Matches), len(tuples))
		}
	}
}

func TestDomainBoundaryValues(t *testing.T) {
	dom := cover.Domain{Bits: 8}
	tuples := []Tuple{{ID: 1, Value: 0}, {ID: 2, Value: 255}, {ID: 3, Value: 128}}
	for _, kind := range nonQuadraticKinds() {
		opts := testOptions(8)
		opts.AllowIntersecting = true
		c, _ := NewClient(kind, dom, opts)
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			q    Range
			want []ID
		}{
			{Range{0, 0}, []ID{1}},
			{Range{255, 255}, []ID{2}},
			{Range{128, 255}, []ID{2, 3}},
			{Range{0, 127}, []ID{1}},
		} {
			res, err := c.QueryContext(context.Background(), idx, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !idsEqual(sortedIDs(res.Matches), tc.want) {
				t.Errorf("%v %v: got %v want %v", kind, tc.q, res.Matches, tc.want)
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	dom := cover.Domain{Bits: 4}
	c, err := NewClient(LogarithmicBRC, dom, testOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildIndex([]Tuple{{ID: 1, Value: 16}}); !errors.Is(err, ErrValueOutsideDomain) {
		t.Errorf("out-of-domain build error = %v", err)
	}
	if _, err := c.BuildIndex([]Tuple{{ID: 1, Value: 1}, {ID: 1, Value: 2}}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id build error = %v", err)
	}
	idx, err := c.BuildIndex([]Tuple{{ID: 1, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryContext(context.Background(), idx, Range{5, 3}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := c.QueryContext(context.Background(), idx, Range{0, 400}); err == nil {
		t.Error("out-of-domain range accepted")
	}
	other, err := NewClient(LogarithmicSRC, dom, testOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.QueryContext(context.Background(), idx, Range{0, 1}); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("kind mismatch error = %v", err)
	}
}

// flakyServer wraps a Source and fails the first `failures` searches —
// the network-error shape that used to poison the Constant schemes'
// intersection history.
type flakyServer struct {
	Source
	failures int
}

var errFlaky = errors.New("simulated transport failure")

func (s *flakyServer) SearchContext(ctx context.Context, t *Trapdoor) (*Response, error) {
	if s.failures > 0 {
		s.failures--
		return nil, errFlaky
	}
	return s.Source.SearchContext(ctx, t)
}

// TestRetryAfterFailedQuery: a query that fails mid-protocol must not
// enter the intersection history, so retrying the same range succeeds.
// (The old code recorded history before running the query, making every
// transient failure permanent.)
func TestRetryAfterFailedQuery(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	tuples := uniformTuples(50, 10, 13)
	for _, kind := range []Kind{ConstantBRC, ConstantURC} {
		c, err := NewClient(kind, dom, testOptions(13))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		flaky := &flakyServer{Source: idx, failures: 1}
		q := Range{100, 200}
		if _, err := c.QueryContext(context.Background(), flaky, q); !errors.Is(err, errFlaky) {
			t.Fatalf("%v: first query error = %v, want simulated failure", kind, err)
		}
		res, err := c.QueryContext(context.Background(), flaky, q)
		if err != nil {
			t.Fatalf("%v: retry of the failed range rejected: %v", kind, err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("%v: retry returned no matches", kind)
		}
		// The successful retry IS recorded: an intersecting query fails.
		if _, err := c.QueryContext(context.Background(), flaky, Range{150, 160}); !errors.Is(err, ErrIntersectingQuery) {
			t.Fatalf("%v: intersecting query after successful retry = %v", kind, err)
		}
	}
}

func TestConstantIntersectionGuard(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	tuples := uniformTuples(50, 10, 11)
	for _, kind := range []Kind{ConstantBRC, ConstantURC} {
		c, err := NewClient(kind, dom, testOptions(11))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.QueryContext(context.Background(), idx, Range{100, 200}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.QueryContext(context.Background(), idx, Range{300, 400}); err != nil {
			t.Fatalf("%v: disjoint query rejected: %v", kind, err)
		}
		if _, err := c.QueryContext(context.Background(), idx, Range{150, 350}); !errors.Is(err, ErrIntersectingQuery) {
			t.Fatalf("%v: intersecting query error = %v", kind, err)
		}
		// Touching at a single point is an intersection too.
		if _, err := c.QueryContext(context.Background(), idx, Range{200, 250}); !errors.Is(err, ErrIntersectingQuery) {
			t.Fatalf("%v: touching query error = %v", kind, err)
		}
		c.ResetHistory()
		if _, err := c.QueryContext(context.Background(), idx, Range{150, 350}); err != nil {
			t.Fatalf("%v: query after ResetHistory rejected: %v", kind, err)
		}
	}
	// AllowIntersecting disables the guard entirely.
	opts := testOptions(12)
	opts.AllowIntersecting = true
	c, err := NewClient(ConstantBRC, dom, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.QueryContext(context.Background(), idx, Range{100, 200}); err != nil {
			t.Fatalf("intersecting query with guard disabled: %v", err)
		}
	}
}

// TestUnguardedClientKeepsNoHistory: with AllowIntersecting the Constant
// schemes record nothing, so a long-lived unguarded client's history does
// not grow with its traffic; a guarded client still refuses an
// intersecting query.
func TestUnguardedClientKeepsNoHistory(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	tuples := uniformTuples(50, 10, 14)
	for _, kind := range []Kind{ConstantBRC, ConstantURC} {
		opts := testOptions(14)
		opts.AllowIntersecting = true
		open, err := NewClient(kind, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := open.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			lo := uint64(i % 500)
			if _, err := open.QueryContext(context.Background(), idx, Range{lo, lo + 100}); err != nil {
				t.Fatalf("%v: intersecting query %d with the guard off: %v", kind, i, err)
			}
		}
		if n := len(open.history); n != 0 {
			t.Fatalf("%v: unguarded client recorded %d ranges", kind, n)
		}

		guarded, err := NewClient(kind, dom, testOptions(14))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := guarded.QueryContext(context.Background(), idx, Range{100, 200}); err != nil {
			t.Fatal(err)
		}
		if _, err := guarded.QueryContext(context.Background(), idx, Range{200, 300}); !errors.Is(err, ErrIntersectingQuery) {
			t.Fatalf("%v: guarded client answered an intersecting query: %v", kind, err)
		}

		// A long history: 1,000 disjoint ranges [10i, 10i+4], reserved in
		// shuffled order. Probes touching the first, a middle or the last
		// range at either endpoint are refused; probes in the gaps are not.
		guarded.ResetHistory()
		for _, i := range mrand.New(mrand.NewSource(14)).Perm(1000) {
			if err := guarded.reserve([]Range{{uint64(10 * i), uint64(10*i + 4)}}); err != nil {
				t.Fatalf("%v: disjoint range %d refused: %v", kind, i, err)
			}
		}
		for _, i := range []uint64{0, 500, 999} {
			lo, hi := 10*i, 10*i+4
			refused := []Range{{lo, lo}, {hi, hi}, {hi, hi + 1}, {lo + 1, hi - 1}, {hi - 1, hi + 100}}
			if lo > 0 {
				refused = append(refused, Range{lo - 1, lo}, Range{lo - 5, hi + 5})
			}
			for _, p := range refused {
				if err := guarded.reserve([]Range{p}); !errors.Is(err, ErrIntersectingQuery) {
					t.Fatalf("%v: probe %v touching %v: err %v", kind, p, Range{lo, hi}, err)
				}
			}
			gaps := []Range{{hi + 1, hi + 1}, {hi + 5, hi + 5}}
			if err := guarded.reserve(gaps); err != nil {
				t.Fatalf("%v: probes %v in the gap after %v refused: %v", kind, gaps, Range{lo, hi}, err)
			}
			guarded.release(gaps)
		}
		if len(guarded.history) != 1000 || !sort.SliceIsSorted(guarded.history, func(a, b int) bool {
			return guarded.history[a].Lo < guarded.history[b].Lo
		}) {
			t.Fatalf("%v: history of %d ranges after the probes, want the 1000 in order", kind, len(guarded.history))
		}
	}
}

func TestFetchTuple(t *testing.T) {
	dom := cover.Domain{Bits: 8}
	tuples := []Tuple{
		{ID: 1, Value: 10, Payload: []byte("alice")},
		{ID: 2, Value: 20, Payload: []byte("bob")},
		{ID: 3, Value: 30},
	}
	c, err := NewClient(LogarithmicBRC, dom, testOptions(13))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchTuple(perIDServer{idx}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 10 || string(got.Payload) != "alice" {
		t.Errorf("FetchTuple(1) = %+v", got)
	}
	got, err = c.FetchTuple(perIDServer{idx}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 30 || len(got.Payload) != 0 {
		t.Errorf("FetchTuple(3) = %+v", got)
	}
	if _, err := c.FetchTuple(perIDServer{idx}, 99); err == nil {
		t.Error("unknown id accepted")
	}
	// A different client (different keys) cannot decrypt the store.
	c2, err := NewClient(LogarithmicBRC, dom, testOptions(14))
	if err != nil {
		t.Fatal(err)
	}
	if tup, err := c2.FetchTuple(perIDServer{idx}, 1); err == nil && tup.Value == 10 {
		t.Error("foreign client decrypted the tuple store")
	}
}

func TestQuadraticDomainGuard(t *testing.T) {
	c, err := NewClient(Quadratic, cover.Domain{Bits: 13}, testOptions(15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildIndex(nil); !errors.Is(err, ErrDomainTooLarge) {
		t.Errorf("domain guard error = %v", err)
	}
}

// TestQuadraticPaddingHidesDistribution: with padding, two very different
// value distributions of the same cardinality must produce byte-identical
// index sizes (Section 4's padding argument).
func TestQuadraticPaddingHidesDistribution(t *testing.T) {
	dom := cover.Domain{Bits: 4}
	allSame := make([]Tuple, 20)
	allDiff := make([]Tuple, 20)
	for i := range allSame {
		allSame[i] = Tuple{ID: uint64(i + 1), Value: 8}
		allDiff[i] = Tuple{ID: uint64(i + 1), Value: uint64(i % 16)}
	}
	sizes := make([]int, 2)
	for i, tuples := range [][]Tuple{allSame, allDiff} {
		opts := testOptions(16)
		opts.PadQuadratic = true
		c, err := NewClient(Quadratic, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = idx.Size()
		// Padded index must still answer correctly.
		res, err := c.QueryContext(context.Background(), idx, Range{4, 12})
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(sortedIDs(res.Matches), exactIDs(tuples, Range{4, 12})) {
			t.Fatal("padded Quadratic returned wrong result")
		}
	}
	if sizes[0] != sizes[1] {
		t.Errorf("padded sizes differ: %d vs %d", sizes[0], sizes[1])
	}
}

func TestKindHelpers(t *testing.T) {
	for _, k := range Kinds() {
		parsed, err := KindByName(k.String())
		if err != nil || parsed != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
	if !LogarithmicSRC.HasFalsePositives() || LogarithmicBRC.HasFalsePositives() {
		t.Error("HasFalsePositives wrong")
	}
	if !LogarithmicSRCi.Interactive() || LogarithmicSRC.Interactive() {
		t.Error("Interactive wrong")
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{3, 7}
	if r.Size() != 5 || !r.Contains(3) || !r.Contains(7) || r.Contains(8) {
		t.Error("Range basics wrong")
	}
	if !r.Intersects(Range{7, 9}) || r.Intersects(Range{8, 9}) {
		t.Error("Intersects wrong")
	}
	if r.String() != "[3, 7]" {
		t.Errorf("String = %q", r.String())
	}
}

func TestIndexAccessors(t *testing.T) {
	dom := cover.Domain{Bits: 6}
	tuples := uniformTuples(30, 6, 17)
	c, err := NewClient(LogarithmicSRCi, dom, testOptions(17))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Kind() != LogarithmicSRCi || idx.Domain() != dom || idx.N() != 30 {
		t.Error("accessors wrong")
	}
	if idx.Size() <= 0 || idx.StoreSize() <= 0 || idx.Postings() <= 0 {
		t.Error("sizes not positive")
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range storage.Engines() {
		x, err := UnmarshalIndexWith(blob, eng)
		if err != nil {
			t.Fatal(err)
		}
		if x.StoreSize() != idx.StoreSize() || x.Size() != idx.Size() {
			t.Errorf("%s: loaded sizes %d, %d; built %d, %d", eng.Name(), x.Size(), x.StoreSize(), idx.Size(), idx.StoreSize())
		}
	}
	if idx.Store().Len() != 30 {
		t.Errorf("store has %d tuples", idx.Store().Len())
	}
	ids := idx.Store().IDs()
	if len(ids) != 30 || ids[0] != 1 {
		t.Errorf("Store().IDs() = %v...", ids[:3])
	}
}

func TestClientAccessors(t *testing.T) {
	c, err := NewClient(ConstantURC, cover.Domain{Bits: 5}, testOptions(18))
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != ConstantURC || c.Domain().Bits != 5 || c.SSEName() != "basic" {
		t.Error("client accessors wrong")
	}
	if _, err := NewClient(LogarithmicBRC, cover.Domain{Bits: 63}, Options{}); err == nil {
		t.Error("oversized domain accepted")
	}
	if _, err := NewClient(LogarithmicBRC, cover.Domain{Bits: 5}, Options{MasterKey: []byte{1}}); err == nil {
		t.Error("short master key accepted")
	}
}

// TestTwoLevelConstruction runs the id-width schemes over the 2lev SSE
// construction; Logarithmic-SRC-i is excluded (its auxiliary index needs
// 40-byte payloads, which 2lev rejects by design).
func TestTwoLevelConstruction(t *testing.T) {
	dom := cover.Domain{Bits: 9}
	tuples := uniformTuples(200, 9, 61)
	q := Range{37, 400}
	want := exactIDs(tuples, q)
	for _, kind := range []Kind{ConstantBRC, ConstantURC, LogarithmicBRC, LogarithmicURC, LogarithmicSRC} {
		opts := testOptions(62)
		opts.SSE = sse.TwoLevel{InlineCap: 8, BlockSize: 16}
		c, err := NewClient(kind, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatalf("%v over 2lev: %v", kind, err)
		}
		res, err := c.QueryContext(context.Background(), idx, q)
		if err != nil {
			t.Fatalf("%v over 2lev: %v", kind, err)
		}
		if !idsEqual(sortedIDs(res.Matches), want) {
			t.Errorf("%v over 2lev: wrong result", kind)
		}
	}
	// SRC-i must fail with a clear error rather than silently degrade.
	opts := testOptions(63)
	opts.SSE = sse.TwoLevel{}
	c, err := NewClient(LogarithmicSRCi, dom, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildIndex(tuples); err == nil {
		t.Error("SRC-i over 2lev should fail (pair payloads are 40 bytes)")
	}
}
