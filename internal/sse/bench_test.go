package sse

import (
	"fmt"
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// testSuites lists every PRF suite; eachSuite runs f once per suite.
var testSuites = prf.Suites()

// usesStagCache reports whether searches under suite run through the
// derived-state cache: all but the F suites', which have nothing to
// cache.
func usesStagCache(suite prf.Suite) bool { return !suite.UsesF() }

// otherSuite is a suite whose labels are not s's. Suites 2 and 3 share
// their labels (they differ only in cell encryption), so neither is the
// other's.
func otherSuite(s prf.Suite) prf.Suite {
	if s.UsesF() {
		return prf.SuiteSHA512
	}
	return s + 1
}

func eachSuite(t *testing.T, f func(t *testing.T, suite prf.Suite)) {
	for _, s := range testSuites {
		t.Run(s.String(), func(t *testing.T) { f(t, s) })
	}
}

// Cross-construction micro-benchmarks: build and search costs per
// construction and per storage engine on the same keyword distribution.

func benchEntries(n, lists int) []Entry {
	rnd := mrand.New(mrand.NewSource(2))
	perList := n / lists
	entries := make([]Entry, lists)
	for i := range entries {
		var stag Stag
		rnd.Read(stag[:])
		ids := make([]uint64, perList)
		for j := range ids {
			ids[j] = rnd.Uint64()
		}
		entries[i] = idEntry(stag, ids)
	}
	return entries
}

func benchConstructions() []Scheme {
	return []Scheme{
		Basic{},
		Packed{BlockSize: 8},
		TSet{BucketCapacity: 512, Expansion: 1.4},
		TwoLevel{InlineCap: 16, BlockSize: 64},
	}
}

func BenchmarkBuild10kPostings(b *testing.B) {
	entries := benchEntries(10000, 100)
	for _, s := range benchConstructions() {
		for _, eng := range storage.Engines() {
			b.Run(s.Name()+"/"+eng.Name(), func(b *testing.B) {
				b.ReportAllocs()
				var size int
				for i := 0; i < b.N; i++ {
					idx, err := s.Build(entries, 8, mrand.New(mrand.NewSource(3)), eng, prf.SuiteSHA512)
					if err != nil {
						b.Fatal(err)
					}
					size = idx.Sizes().Total()
				}
				b.ReportMetric(float64(size)/1024, "KB")
			})
		}
	}
}

// BenchmarkSearch100IDs is the acceptance benchmark for the storage seam:
// per construction it runs the hot server-side Search path on every
// engine.
func BenchmarkSearch100IDs(b *testing.B) {
	entries := benchEntries(10000, 100) // 100 ids per keyword
	for _, s := range benchConstructions() {
		for _, eng := range storage.Engines() {
			b.Run(s.Name()+"/"+eng.Name(), func(b *testing.B) {
				idx, err := s.Build(entries, 8, mrand.New(mrand.NewSource(4)), eng, prf.SuiteSHA512)
				if err != nil {
					b.Fatal(err)
				}
				one := new(oneStag)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, err := one.search(idx, entries[i%len(entries)].Stag)
					if err != nil {
						b.Fatal(err)
					}
					if got != 100 {
						b.Fatal(fmt.Errorf("got %d payloads", got))
					}
				}
			})
		}
	}
}

// BenchmarkSearchColdStags is the miss path on its own: every search is
// of a stag the cache has never seen — the Constant schemes' leaves, an
// LSM epoch's foreign tokens — with an empty list (nothing but the
// location key, one label and one missing probe — under F the label
// alone) or a one-cell list (plus the lazy cell key, one decrypt
// and the result), under each PRF suite. Run with -benchmem: the empty
// case must report 0 allocs/op.
func BenchmarkSearchColdStags(b *testing.B) {
	for _, suite := range testSuites {
		b.Run(suite.String(), func(b *testing.B) { benchSearchColdStags(b, suite) })
	}
}

func benchSearchColdStags(b *testing.B, suite prf.Suite) {
	const lists = 1 << 14
	entries := benchEntries(lists, lists) // one id per keyword
	for _, s := range benchConstructions() {
		idx, err := s.Build(entries, 8, mrand.New(mrand.NewSource(5)), nil, suite)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name()+"/empty", func(b *testing.B) {
			rnd := mrand.New(mrand.NewSource(6))
			var stag Stag
			one := new(oneStag)
			ResetKernelCache()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rnd.Read(stag[:])
				if got, err := one.search(idx, stag); err != nil || got != 0 {
					b.Fatalf("got %d payloads, err %v", got, err)
				}
			}
		})
		b.Run(s.Name()+"/1cell", func(b *testing.B) {
			one := new(oneStag)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%lists == 0 {
					// A second pass over the keywords would be second
					// sights: forget the first.
					b.StopTimer()
					ResetKernelCache()
					b.StartTimer()
				}
				if got, err := one.search(idx, entries[i%lists].Stag); err != nil || got != 1 {
					b.Fatalf("got %d payloads, err %v", got, err)
				}
			}
		})
	}
}

// BenchmarkSearchStags is one batch_cluster shard request at the sse
// layer: 85 stags with lists of about seven cells, searched as one
// request on the sorted engine, a Logarithmic-URC shard's basic
// dictionary of ≈170,000 cells under suites 2 and 3, the stags drawn
// afresh each request so their cells are not the last request's. ns/op
// is per request; allocs/op is the one array the groups share, plus
// under suite 2 one AES key schedule per stag that hits (it caches
// none).
func BenchmarkSearchStags(b *testing.B) {
	for _, suite := range []prf.Suite{prf.SuiteBlock, prf.SuiteBlockPad} {
		b.Run(suite.String(), func(b *testing.B) { benchSearchStags(b, suite) })
	}
}

func benchSearchStags(b *testing.B, suite prf.Suite) {
	const lists, perList, perRequest = 24000, 7, 85
	rnd := mrand.New(mrand.NewSource(9))
	entries := make([]Entry, lists)
	for i := range entries {
		rnd.Read(entries[i].Stag[:])
		n := perList - 2 + rnd.Intn(5) // 5..9 cells, 7 on average
		ids := make([]uint64, n)
		for j := range ids {
			ids[j] = rnd.Uint64()
		}
		entries[i] = idEntry(entries[i].Stag, ids)
	}
	idx, err := Basic{}.Build(entries, 8, mrand.New(mrand.NewSource(10)), storage.Sorted{}, suite)
	if err != nil {
		b.Fatal(err)
	}
	requests := make([][]Stag, 64)
	for r := range requests {
		requests[r] = make([]Stag, perRequest)
		for k := range requests[r] {
			requests[r][k] = entries[rnd.Intn(lists)].Stag
		}
	}
	var data []byte
	ends := make([]int, 0, perRequest)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data, ends, err = idx.Search(requests[i%len(requests)], data[:0], ends[:0]); err != nil || len(ends) != perRequest {
			b.Fatalf("%d groups, err %v", len(ends), err)
		}
	}
}
