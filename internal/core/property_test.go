package core

import (
	"context"
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"rsse/internal/cover"
	"rsse/internal/storage"
)

// TestQuickCrossSchemeEquivalence is the framework's central property:
// for random datasets and random queries, every scheme must produce the
// same set of matching ids.
func TestQuickCrossSchemeEquivalence(t *testing.T) {
	const bits = 8
	dom := cover.Domain{Bits: bits}
	type input struct {
		Values []uint16
		QLo    uint8
		QSize  uint8
	}
	check := func(in input) bool {
		if len(in.Values) == 0 {
			return true
		}
		if len(in.Values) > 120 {
			in.Values = in.Values[:120]
		}
		tuples := make([]Tuple, len(in.Values))
		for i, v := range in.Values {
			tuples[i] = Tuple{ID: uint64(i + 1), Value: uint64(v) % (1 << bits)}
		}
		lo := uint64(in.QLo)
		hi := lo + uint64(in.QSize)
		if hi >= dom.Size() {
			hi = dom.Size() - 1
		}
		q := Range{lo, hi}
		want := exactIDs(tuples, q)
		for _, kind := range nonQuadraticKinds() {
			opts := testOptions(1)
			opts.AllowIntersecting = true
			c, err := NewClient(kind, dom, opts)
			if err != nil {
				return false
			}
			idx, err := c.BuildIndex(tuples)
			if err != nil {
				return false
			}
			res, err := c.QueryContext(context.Background(), idx, q)
			if err != nil {
				return false
			}
			if !idsEqual(sortedIDs(res.Matches), want) {
				t.Logf("%v: query %v got %d matches, want %d", kind, q, len(res.Matches), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickURCCoverInvariance: for random (R, position) pairs, URC's
// token-level multiset depends only on R.
func TestQuickURCCoverInvariance(t *testing.T) {
	dom := cover.Domain{Bits: 24}
	check := func(r uint16, posA, posB uint32) bool {
		R := uint64(r)%4096 + 1
		span := dom.Size() - R
		a := uint64(posA) % span
		b := uint64(posB) % span
		na, err := cover.URC(dom, a, a+R-1)
		if err != nil {
			return false
		}
		nb, err := cover.URC(dom, b, b+R-1)
		if err != nil {
			return false
		}
		counts := func(nodes []cover.Node) map[uint8]int {
			m := map[uint8]int{}
			for _, n := range nodes {
				m[n.Level]++
			}
			return m
		}
		return reflect.DeepEqual(counts(na), counts(nb))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentServerSearch: the server-side Index must support
// concurrent Search calls (it is read-only after build). Clients are
// documented as not concurrent-safe, so trapdoors are generated first.
func TestConcurrentServerSearch(t *testing.T) {
	dom := cover.Domain{Bits: 12}
	tuples := uniformTuples(500, 12, 71)
	for _, kind := range []Kind{LogarithmicBRC, LogarithmicSRC, ConstantURC} {
		opts := testOptions(72)
		opts.AllowIntersecting = true
		c, err := NewClient(kind, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		rnd := mrand.New(mrand.NewSource(73))
		trapdoors := make([]*Trapdoor, 32)
		expected := make([]int, 32)
		for i := range trapdoors {
			R := uint64(1) + rnd.Uint64()%512
			lo := rnd.Uint64() % (dom.Size() - R)
			td, err := c.Trapdoor(Range{lo, lo + R - 1})
			if err != nil {
				t.Fatal(err)
			}
			trapdoors[i] = td
			resp, err := idx.SearchContext(context.Background(), td)
			if err != nil {
				t.Fatal(err)
			}
			expected[i] = resp.Items()
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(trapdoors))
		for i, td := range trapdoors {
			wg.Add(1)
			go func(i int, td *Trapdoor) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					resp, err := idx.SearchContext(context.Background(), td)
					if err != nil {
						errs <- err
						return
					}
					if resp.Items() != expected[i] {
						t.Errorf("%v: concurrent search %d returned %d items, want %d",
							kind, i, resp.Items(), expected[i])
						return
					}
				}
			}(i, td)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestCorruptStoreDetected: a tampered tuple ciphertext must surface as
// an error during false-positive filtering, not as silent garbage.
func TestCorruptStoreDetected(t *testing.T) {
	dom := cover.Domain{Bits: 8}
	tuples := uniformTuples(50, 8, 74)
	c, err := NewClient(LogarithmicSRC, dom, testOptions(75))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with every ciphertext's padding region. The visited slices
	// alias backend memory; mutating them is exactly the point here.
	idx.store.cts.Iterate(func(_, ct []byte) bool {
		ct[len(ct)-1] ^= 0xFF
		return true
	})
	_, err = c.QueryContext(context.Background(), idx, Range{0, 255})
	if err == nil {
		// CBC padding may occasionally still validate; FetchTuple must
		// then return a wrong value rather than crash — but for the whole
		// store to pass silently is (2^-8)^50-level improbable.
		t.Error("tampered store went unnoticed across 50 tuples")
	}
}

// TestServerReturnsUnknownID: a malicious server response containing an
// id outside the store must be rejected by the owner-side filter.
func TestServerReturnsUnknownID(t *testing.T) {
	dom := cover.Domain{Bits: 8}
	c, err := NewClient(LogarithmicSRC, dom, testOptions(76))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := storage.Default().NewBuilder(storeKeyLen, 0).Seal()
	if err != nil {
		t.Fatal(err)
	}
	res := []*Result{{Raw: []ID{42}}}
	if err := c.filter(context.Background(), &Index{store: &TupleStore{cts: empty}}, []Range{{0, 10}}, res, &BatchStats{}); err == nil {
		t.Error("unknown id accepted by filter")
	}
}

// TestTrapdoorDeterministicTokenSet: the stag multiset for a range is
// stable across calls (search pattern), even though order is permuted.
func TestTrapdoorDeterministicTokenSet(t *testing.T) {
	dom := cover.Domain{Bits: 14}
	for _, kind := range []Kind{LogarithmicBRC, LogarithmicURC, LogarithmicSRC} {
		c, err := NewClient(kind, dom, testOptions(77))
		if err != nil {
			t.Fatal(err)
		}
		q := Range{1000, 9000}
		a, err := c.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		setOf := func(td *Trapdoor) map[[32]byte]int {
			m := map[[32]byte]int{}
			for _, s := range td.Stags {
				m[[32]byte(s)]++
			}
			return m
		}
		if !reflect.DeepEqual(setOf(a), setOf(b)) {
			t.Errorf("%v: trapdoor token set unstable", kind)
		}
	}
}

// TestConstantTokensAreGGM: the Constant schemes must emit GGM tokens,
// everything else SSE stags — the wire-format distinction the server
// dispatches on.
func TestConstantTokensAreGGM(t *testing.T) {
	dom := cover.Domain{Bits: 10}
	for _, kind := range nonQuadraticKinds() {
		c, err := NewClient(kind, dom, testOptions(78))
		if err != nil {
			t.Fatal(err)
		}
		td, err := c.Trapdoor(Range{10, 200})
		if err != nil {
			t.Fatal(err)
		}
		isConstant := kind == ConstantBRC || kind == ConstantURC
		if isConstant && (len(td.GGM) == 0 || len(td.Stags) != 0) {
			t.Errorf("%v: expected GGM tokens, got %d stags", kind, len(td.Stags))
		}
		if !isConstant && (len(td.Stags) == 0 || len(td.GGM) != 0) {
			t.Errorf("%v: expected stags, got %d GGM tokens", kind, len(td.GGM))
		}
	}
}
