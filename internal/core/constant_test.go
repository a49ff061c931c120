package core

import (
	"context"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/sse"
)

// TestBuildConstantStagsMatchEval pins the build side's prefix-sharing
// leaf derivation to the DPRF definition: every distinct value's posting
// list sits under exactly f_k(value) as Key.Eval computes it.
func TestBuildConstantStagsMatchEval(t *testing.T) {
	const bits = 12
	tuples := uniformTuples(600, bits, 51)
	for _, kind := range []Kind{ConstantBRC, ConstantURC} {
		c, err := NewClient(kind, cover.Domain{Bits: bits}, testOptions(52))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		byValue := make(map[Value][]ID)
		for _, tu := range tuples {
			byValue[tu.Value] = append(byValue[tu.Value], tu.ID)
		}
		for v, want := range byValue {
			leaf, err := c.kDPRF.WithSuite(c.suite).Eval(v)
			if err != nil {
				t.Fatal(err)
			}
			data, _, err := idx.primary.Search([]sse.Stag{sse.Stag(leaf)}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]ID, len(data)/IDSize)
			for i := range ids {
				ids[i] = binary.BigEndian.Uint64(data[IDSize*i:])
			}
			if !idsEqual(sortedIDs(ids), sortedIDs(want)) {
				t.Fatalf("%v: value %d: Eval's stag finds ids %v, want %v", kind, v, ids, want)
			}
		}
	}
}

// TestTokenLevelBounded: a GGM token whose level exceeds the index's
// domain height is refused with ErrTokenLevel by Search, the one path
// every single and batched round takes — never expanded (level 64 used
// to index an empty slice, levels 31-63 to size an allocation by
// 2^Level), even behind a token that is fine.
func TestTokenLevelBounded(t *testing.T) {
	const bits = 10
	c, err := NewClient(ConstantBRC, cover.Domain{Bits: bits}, testOptions(53))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(100, bits, 54))
	if err != nil {
		t.Fatal(err)
	}
	good, err := c.Trapdoor(Range{0, 1<<bits - 1})
	if err != nil {
		t.Fatal(err)
	}
	if good.GGM[0].Level != bits {
		t.Fatalf("full-domain token has level %d, want %d", good.GGM[0].Level, bits)
	}
	if _, err := idx.SearchContext(context.Background(), good); err != nil {
		t.Fatalf("token at the domain height refused: %v", err)
	}
	for _, level := range []uint8{bits + 1, 31, 63, 64, 255} {
		bad := &Trapdoor{round: 1, GGM: []dprf.Token{good.GGM[0], {Level: level}}}
		if _, err := idx.SearchContext(context.Background(), bad); !errors.Is(err, ErrTokenLevel) {
			t.Errorf("Search with a level-%d token: err %v, want ErrTokenLevel", level, err)
		}
	}
}

// TestKernelCacheDifferential: what a query returns must not depend on
// what the derived-state cache and its doorkeeper hold. Every scheme
// runs one query stream three times — the cache reset before every
// query, then cold-to-warm, then fully warm (by the third pass every
// stag has been seen twice and is served from the cache) — and all
// three must return the same raw ids (false positives included). A kind
// whose default suite bypasses the cache (suite 2) runs the stream on
// its default index too, where the three passes must agree and the
// cache's counters must not move at all, and the differential proper on
// a suite-1 index of the same data.
func TestKernelCacheDifferential(t *testing.T) {
	const bits = 6 // Quadratic's keyword space is O(m^2)
	tuples := uniformTuples(120, bits, 61)
	rnd := mrand.New(mrand.NewSource(62))
	ranges := make([]Range, 40)
	for i := range ranges {
		lo := rnd.Uint64() % (1 << bits)
		ranges[i] = Range{Lo: lo, Hi: min(lo+rnd.Uint64()%16, 1<<bits-1)}
	}
	defer sse.ResetKernelCache()
	for _, kind := range append([]Kind{Quadratic}, nonQuadraticKinds()...) {
		t.Run(kind.String(), func(t *testing.T) {
			opts := testOptions(63)
			opts.AllowIntersecting = true
			c, err := NewClient(kind, cover.Domain{Bits: bits}, opts)
			if err != nil {
				t.Fatal(err)
			}
			suites := []prf.Suite{c.suite}
			if c.suite.UsesF() {
				suites = append(suites, prf.SuiteSHA256)
			}
			for _, suite := range suites {
				idx, err := withBuildSuite(c, suite).BuildIndex(tuples)
				if err != nil {
					t.Fatal(err)
				}
				pass := func(resetEach bool) [][]ID {
					out := make([][]ID, len(ranges))
					for i, q := range ranges {
						if resetEach {
							sse.ResetKernelCache()
						}
						res, err := c.QueryContext(context.Background(), idx, q)
						if err != nil {
							t.Fatalf("query %v: %v", q, err)
						}
						if !idsEqual(sortedIDs(res.Matches), exactIDs(tuples, q)) {
							t.Fatalf("query %v: wrong matches", q)
						}
						out[i] = sortedIDs(res.Raw) // token order is permuted per query
					}
					return out
				}
				cold := pass(true)
				sse.ResetKernelCache()
				warming := pass(false)
				pass(false)
				warm := pass(false)
				hits, misses := sse.KernelCacheStats()
				if suite.UsesF() {
					if adm := sse.KernelCacheAdmissions(); hits != 0 || misses != 0 || adm != 0 {
						t.Fatalf("%v searches moved the cache counters: %d hits, %d misses, %d admissions", suite, hits, misses, adm)
					}
				} else if hits == 0 {
					t.Fatalf("%v: warm passes never hit the cache: the differential compares nothing", suite)
				}
				for i := range ranges {
					if !idsEqual(cold[i], warming[i]) || !idsEqual(cold[i], warm[i]) {
						t.Fatalf("%v: query %v: raw ids differ between cold, warming and warm cache", suite, ranges[i])
					}
				}
			}
		})
	}
}

// TestColdStagAllocs: a Constant-BRC query over leaves the server has
// never seen — the only kind the scheme's no-intersection rule lets it
// see — must not pay per leaf for derived state that is never used
// again: no cache entry at first sight, no AES schedule for an empty
// list. The budget of 0.3 objects per leaf covers the few non-empty
// leaves (1% here) and the per-query fixed cost; the eager cache cost
// 2.1.
func TestColdStagAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	const bits, width = 20, 1024
	tuples := uniformTuples(10000, bits, 72)
	defer sse.ResetKernelCache()
	for _, suite := range allSuites {
		t.Run(suite.String(), func(t *testing.T) {
			opts := testOptions(71)
			opts.SSE = sse.TSet{BucketCapacity: 512, Expansion: 1.4}
			c, err := NewClient(ConstantBRC, cover.Domain{Bits: bits}, opts)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := withBuildSuite(c, suite).BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			sse.ResetKernelCache()
			next := uint64(0)
			perQuery := testing.AllocsPerRun(20, func() {
				// Disjoint, unaligned ranges: never the same leaf twice.
				lo := next*2*width + 17
				next++
				if _, err := c.QueryContext(context.Background(), idx, Range{Lo: lo, Hi: lo + width - 1}); err != nil {
					t.Fatal(err)
				}
			})
			if hits, _ := sse.KernelCacheStats(); hits != 0 {
				t.Fatalf("%d cache hits on never-repeating leaves", hits)
			}
			if ad := sse.KernelCacheAdmissions(); ad != 0 {
				t.Fatalf("%d admissions for stags seen once", ad)
			}
			if perLeaf := perQuery / width; perLeaf >= 0.3 {
				t.Errorf("cold Constant-BRC query allocates %.0f objects over %d leaves = %.2f per leaf, want < 0.3",
					perQuery, width, perLeaf)
			} else {
				t.Logf("%.0f objects per %d-leaf query = %.3f per leaf", perQuery, width, perLeaf)
			}
		})
	}
}
