package core

import (
	"context"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/sse"
)

// Query-path benchmarks: the standard 10k-tuple workloads of the
// in-process query path (end-to-end numbers come from benchmark/).
// LogBRC exercises the stag-derivation + SSE-search path; Constant
// exercises GGM delegation and server-side expansion. Run with
// -benchmem: allocations per op on these two paths are pinned by the
// TestQueryPathAllocs guards.

const (
	benchTuples = 10000
	benchBits   = 16
)

// benchSetup builds a deterministic 10k-tuple index for the given scheme
// using the paper's TSet construction (small buckets so padding does not
// dominate the 10k index). It takes testing.TB so TestQueryPathAllocs
// measures exactly the workload the benchmarks report.
func benchSetup(b testing.TB, kind Kind) (*Client, *Index, []Range) {
	b.Helper()
	opts := testOptions(7)
	opts.SSE = sse.TSet{BucketCapacity: 512, Expansion: 1.4}
	opts.AllowIntersecting = true
	client, err := NewClient(kind, cover.Domain{Bits: benchBits}, opts)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := client.BuildIndex(uniformTuples(benchTuples, benchBits, 42))
	if err != nil {
		b.Fatal(err)
	}
	// A fixed workload of mid-size ranges (~1% of the domain), disjoint so
	// the Constant schemes accept them and deterministic so every run (and
	// the before/after comparison in README) measures the same work. The
	// 64 ranges repeat: under a suite that caches derived state every
	// leaf is warm from the third pass over them.
	m := uint64(1) << benchBits
	width := m / 100
	ranges := make([]Range, 64)
	for i := range ranges {
		lo := (uint64(i) * (m / 64)) % (m - width)
		ranges[i] = Range{Lo: lo, Hi: lo + width - 1}
	}
	return client, idx, ranges
}

func BenchmarkQueryPath(b *testing.B) {
	for _, tc := range []struct {
		name string
		kind Kind
	}{
		{"LogBRC", LogarithmicBRC},
		{"Constant", ConstantBRC},
	} {
		b.Run(tc.name, func(b *testing.B) {
			client, idx, ranges := benchSetup(b, tc.kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				client.ResetHistory()
				if _, err := client.QueryContext(context.Background(), idx, ranges[i%len(ranges)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBatchPath measures the batched pipeline on 64 overlapping
// ranges — the dedup-heavy counterpart of the single-query path.
func BenchmarkQueryBatchPath(b *testing.B) {
	client, idx, _ := benchSetup(b, LogarithmicBRC)
	m := uint64(1) << benchBits
	ranges := make([]Range, 64)
	for i := range ranges {
		lo := m/8 + uint64(i)*(m/1024)
		ranges[i] = Range{Lo: lo, Hi: lo + m/10 - 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.QueryBatchContext(context.Background(), idx, ranges); err != nil {
			b.Fatal(err)
		}
	}
}
