// Repository-level benchmarks: one testing.B entry per table/figure of
// the paper's evaluation, at a laptop-friendly scale. The cmd/rsse-bench
// binary runs the same experiments with full sweeps and paper-style
// output.
//
// Run with: go test -bench=. -benchmem
package rsse_test

import (
	"context"
	"fmt"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rsse"
	"rsse/internal/dataset"
)

// Benchmark workload: a near-uniform ("Gowalla-like") and a skewed
// ("USPS-like") dataset, sized to keep the full bench run in minutes.
const (
	benchBits = 16
	benchN    = 10000
	uspsBits  = 14
	uspsN     = 8000
	trapdoorR = 100
	fig8Bits  = 20
)

var (
	benchOnce    sync.Once
	benchGowalla []rsse.Tuple
	benchUSPS    []rsse.Tuple

	clientsMu sync.Mutex
	clients   = map[string]*rsse.Client{}
	indexes   = map[string]*rsse.Index{}
)

func benchSetup() {
	benchOnce.Do(func() {
		benchGowalla = dataset.Uniform(benchN, benchBits, 1)
		m := uint64(1) << uspsBits
		benchUSPS = dataset.BandedZipfPool(uspsN, uspsBits, uspsN/20, 1.3, m/8, m/2, 2)
	})
}

// benchClient returns a cached client+index for (kind, dataset) pairs so
// expensive builds happen once per bench binary run.
func benchClient(b *testing.B, kind rsse.Kind, usps bool) (*rsse.Client, *rsse.Index) {
	b.Helper()
	benchSetup()
	key := fmt.Sprintf("%v/%v", kind, usps)
	clientsMu.Lock()
	defer clientsMu.Unlock()
	if c, ok := clients[key]; ok {
		return c, indexes[key]
	}
	bits := uint8(benchBits)
	tuples := benchGowalla
	if usps {
		bits = uspsBits
		tuples = benchUSPS
	}
	c, err := rsse.NewClient(kind, bits,
		rsse.WithSeed(3), rsse.AllowIntersectingQueries(),
		rsse.WithTSetParams(512, 1.4))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		b.Fatal(err)
	}
	clients[key] = c
	indexes[key] = idx
	return c, idx
}

func benchKinds() []rsse.Kind {
	return []rsse.Kind{
		rsse.ConstantBRC, rsse.ConstantURC,
		rsse.LogarithmicBRC, rsse.LogarithmicURC,
		rsse.LogarithmicSRC, rsse.LogarithmicSRCi,
	}
}

// BenchmarkFig5_Build measures index construction (Figure 5(b)); the
// reported index_MB metric is Figure 5(a).
func BenchmarkFig5_Build(b *testing.B) {
	benchSetup()
	for _, kind := range benchKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				c, err := rsse.NewClient(kind, benchBits,
					rsse.WithSeed(4), rsse.WithTSetParams(512, 1.4))
				if err != nil {
					b.Fatal(err)
				}
				idx, err := c.BuildIndex(benchGowalla)
				if err != nil {
					b.Fatal(err)
				}
				size = idx.Size()
			}
			b.ReportMetric(float64(size)/(1<<20), "index_MB")
		})
	}
}

// BenchmarkTable2_Build is the skewed-data construction cost (Table 2).
func BenchmarkTable2_Build(b *testing.B) {
	benchSetup()
	for _, kind := range benchKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				c, err := rsse.NewClient(kind, uspsBits,
					rsse.WithSeed(5), rsse.WithTSetParams(512, 1.4))
				if err != nil {
					b.Fatal(err)
				}
				idx, err := c.BuildIndex(benchUSPS)
				if err != nil {
					b.Fatal(err)
				}
				size = idx.Size()
			}
			b.ReportMetric(float64(size)/(1<<20), "index_MB")
		})
	}
}

// BenchmarkFig6_FalsePositives runs the SRC schemes on the skewed
// workload and reports the average false-positive rate (Figure 6(b)).
func BenchmarkFig6_FalsePositives(b *testing.B) {
	for _, kind := range []rsse.Kind{rsse.LogarithmicSRC, rsse.LogarithmicSRCi} {
		for _, pct := range []float64{10, 50} {
			b.Run(fmt.Sprintf("%v/range=%v%%", kind, pct), func(b *testing.B) {
				c, idx := benchClient(b, kind, true)
				queries := dataset.PercentQueries(64, c.Domain(), pct, 6)
				var fp, raw int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := c.QueryContext(context.Background(), idx, queries[i%len(queries)])
					if err != nil {
						b.Fatal(err)
					}
					fp += res.Stats.FalsePositives
					raw += res.Stats.Raw
				}
				if raw > 0 {
					b.ReportMetric(float64(fp)/float64(raw), "fp_rate")
				}
			})
		}
	}
}

// BenchmarkFig7_Search measures one full query protocol per op for every
// scheme at two range sizes on the uniform workload (Figure 7(a)).
func BenchmarkFig7_Search(b *testing.B) {
	for _, kind := range benchKinds() {
		for _, pct := range []float64{10, 50} {
			b.Run(fmt.Sprintf("%v/range=%v%%", kind, pct), func(b *testing.B) {
				c, idx := benchClient(b, kind, false)
				queries := dataset.PercentQueries(64, c.Domain(), pct, 7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.QueryContext(context.Background(), idx, queries[i%len(queries)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7_SearchUSPS is Figure 7(b): the skewed workload, where
// SRC-i overtakes SRC.
func BenchmarkFig7_SearchUSPS(b *testing.B) {
	for _, kind := range []rsse.Kind{rsse.LogarithmicSRC, rsse.LogarithmicSRCi} {
		b.Run(kind.String(), func(b *testing.B) {
			c, idx := benchClient(b, kind, true)
			queries := dataset.PercentQueries(64, c.Domain(), 25, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.QueryContext(context.Background(), idx, queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8_Trapdoor measures owner-side token generation and size
// (Figures 8(a) and 8(b)) on a 2^20 domain, dataset-independent.
func BenchmarkFig8_Trapdoor(b *testing.B) {
	for _, kind := range benchKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			c, err := rsse.NewClient(kind, fig8Bits, rsse.WithSeed(9))
			if err != nil {
				b.Fatal(err)
			}
			rnd := mrand.New(mrand.NewSource(10))
			var bytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := rnd.Uint64() % ((1 << fig8Bits) - trapdoorR)
				_, bb, err := c.TrapdoorCost(rsse.Range{Lo: lo, Hi: lo + trapdoorR - 1})
				if err != nil {
					b.Fatal(err)
				}
				bytes = bb
			}
			b.ReportMetric(float64(bytes), "query_bytes")
		})
	}
}

// BenchmarkUpdates_Flush measures the Section 7 batch pipeline: buffering
// plus flushing one 100-op batch into a fresh epoch, with consolidation.
func BenchmarkUpdates_Flush(b *testing.B) {
	d, err := rsse.NewDynamic(rsse.LogarithmicBRC, benchBits, 4,
		rsse.WithSeed(11), rsse.WithTSetParams(512, 1.4))
	if err != nil {
		b.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(12))
	id := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			d.Insert(id, rnd.Uint64()%(1<<benchBits), nil)
			id++
		}
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.ActiveIndexes()), "active_indexes")
}

// BenchmarkOpenIndex is the acceptance benchmark for the disk engine's
// lazy serving path: it serializes a 100k-tuple index once, then
// measures what a server pays to bring it online. Both engines open the
// bytes in place — header parsing plus one sequential checksum pass —
// and the sorted engine first copies them once; the disk engine serves
// the caller's heap blob or memory-mapped file itself.
func BenchmarkOpenIndex(b *testing.B) {
	const openN = 100000
	tuples := dataset.Uniform(openN, 20, 21)
	c, err := rsse.NewClient(rsse.ConstantBRC, 20, rsse.WithSeed(22))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.idx")
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		b.Fatal(err)
	}
	for _, engine := range rsse.StorageEngines() {
		b.Run(engine+"/blob", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				if _, err := rsse.UnmarshalIndexWith(blob, engine); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(engine+"/file", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				x, err := rsse.OpenIndexFile(path, engine)
				if err != nil {
					b.Fatal(err)
				}
				if err := x.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Cluster benchmark state: one 100k-tuple dataset, clusters cached per
// shard count so the expensive builds happen once per bench binary run.
const (
	clusterBenchBits = 20
	clusterBenchN    = 100000
)

var (
	clusterBenchOnce   sync.Once
	clusterBenchTuples []rsse.Tuple
	clustersMu         sync.Mutex
	clusters           = map[int]*rsse.Cluster{}
)

func benchCluster(b *testing.B, shards int) *rsse.Cluster {
	b.Helper()
	clusterBenchOnce.Do(func() {
		clusterBenchTuples = dataset.Uniform(clusterBenchN, clusterBenchBits, 41)
	})
	clustersMu.Lock()
	defer clustersMu.Unlock()
	if c, ok := clusters[shards]; ok {
		return c
	}
	c, err := rsse.BuildCluster(rsse.LogarithmicBRC, clusterBenchBits, shards,
		clusterBenchTuples, rsse.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	clusters[shards] = c
	return c
}

// BenchmarkClusterQuery sweeps the shard count on a fixed 100k-tuple
// workload. ns/op is the merged-result latency of one scatter-gather
// query over a 10%-of-domain range; tokens/shard is the per-sub-query
// token cost. Latency drops as shards grow for two stacked reasons:
// partition pruning (a query touches only the shards its range
// intersects — see shards/query — and each holds 1/k of the data), and,
// on multi-core hosts, the intersected shards searching in parallel.
func BenchmarkClusterQuery(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCluster(b, shards)
			queries := dataset.PercentQueries(64, c.Domain(), 10, 43)
			var tokens, subQueries int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.QueryBatchContext(context.Background(), []rsse.Range{queries[i%len(queries)]})
				if err != nil {
					b.Fatal(err)
				}
				tokens += res.Results[0].Stats.Tokens
				subQueries += len(res.Shards)
			}
			b.StopTimer()
			if subQueries > 0 {
				b.ReportMetric(float64(tokens)/float64(subQueries), "tokens/shard")
			}
			b.ReportMetric(float64(subQueries)/float64(b.N), "shards/query")
		})
	}
}

// BenchmarkClusterQueryParallel is the throughput view of the same
// sweep: many owner goroutines query the cluster at once, so per-shard
// serialization (one mutex per shard client) is the contention point —
// more shards, more parallelism.
func BenchmarkClusterQueryParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := benchCluster(b, shards)
			queries := dataset.PercentQueries(64, c.Domain(), 10, 44)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := c.QueryBatchContext(context.Background(), []rsse.Range{queries[i%len(queries)]}); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// batchBenchRanges returns 64 heavily overlapping 10%-of-domain windows
// sliding across a hot region — the correlated-burst workload the batch
// pipeline exists for.
func batchBenchRanges() []rsse.Range {
	const (
		m     = uint64(1) << benchBits
		width = m / 10
	)
	out := make([]rsse.Range, 64)
	for i := range out {
		lo := m/8 + uint64(i)*(m/1024)
		out[i] = rsse.Range{Lo: lo, Hi: lo + width - 1}
	}
	return out
}

// BenchmarkBatchQuery is the acceptance benchmark for the batched query
// pipeline: a batch of 64 overlapping ranges executed as a sequential
// per-range loop vs one QueryBatch, against a local index and over a TCP
// loopback connection. One op = all 64 ranges answered. The batch
// sub-benchmarks report dedup_x (cover nodes demanded per unique token
// actually sent) and tokens_sent; sequential sub-benchmarks report
// tokens_sent for comparison. On the remote path the sequential loop
// pays 64 search frames where the batch pays one, searched concurrently
// server-side.
func BenchmarkBatchQuery(b *testing.B) {
	c, idx := benchClient(b, rsse.LogarithmicBRC, false)
	ranges := batchBenchRanges()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() { _ = rsse.Serve(l, idx) }()
	remote, err := rsse.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()

	b.Run("local/sequential", func(b *testing.B) {
		var tokens int
		for i := 0; i < b.N; i++ {
			tokens = 0
			for _, q := range ranges {
				res, err := c.QueryContext(context.Background(), idx, q)
				if err != nil {
					b.Fatal(err)
				}
				tokens += res.Stats.Tokens
			}
		}
		b.ReportMetric(float64(tokens), "tokens_sent")
	})
	b.Run("local/batch", func(b *testing.B) {
		var stats rsse.BatchStats
		for i := 0; i < b.N; i++ {
			br, err := c.QueryBatchContext(context.Background(), idx, ranges)
			if err != nil {
				b.Fatal(err)
			}
			stats = br.Stats
		}
		b.ReportMetric(stats.DedupRatio(), "dedup_x")
		b.ReportMetric(float64(stats.UniqueTokens), "tokens_sent")
	})
	b.Run("remote/sequential", func(b *testing.B) {
		var tokens int
		for i := 0; i < b.N; i++ {
			tokens = 0
			for _, q := range ranges {
				res, err := c.QueryContext(context.Background(), remote, q)
				if err != nil {
					b.Fatal(err)
				}
				tokens += res.Stats.Tokens
			}
		}
		b.ReportMetric(float64(tokens), "tokens_sent")
	})
	b.Run("remote/batch", func(b *testing.B) {
		var stats rsse.BatchStats
		for i := 0; i < b.N; i++ {
			br, err := c.QueryBatchContext(context.Background(), remote, ranges)
			if err != nil {
				b.Fatal(err)
			}
			stats = br.Stats
		}
		b.ReportMetric(stats.DedupRatio(), "dedup_x")
		b.ReportMetric(float64(stats.UniqueTokens), "tokens_sent")
	})
}

// BenchmarkRemoteFilter measures the SRC schemes' owner-side refinement
// over a TCP loopback connection: one op is a whole Logarithmic-SRC-i
// query returning ≈100 raw ids — two search rounds, then the fetch round
// (one fetch-many frame instead of ≈100 fetch round trips) and the
// value-only decrypt that weeds out the false positives. Run with
// -benchmem; rawids/op and matches/op say how much the filter had to do.
func BenchmarkRemoteFilter(b *testing.B) {
	c, idx := benchClient(b, rsse.LogarithmicSRCi, false)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() { _ = rsse.Serve(l, idx) }()
	remote, err := rsse.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()

	// 0.5% of the domain holds ≈50 of the 10k uniform tuples; the
	// single-node SRC cover returns about twice as many ids.
	const width = (1 << benchBits) * 50 / 10000
	ranges := make([]rsse.Range, 64)
	for i := range ranges {
		lo := uint64(i)*((1<<benchBits)/64) + 17
		ranges[i] = rsse.Range{Lo: lo, Hi: lo + width - 1}
	}
	var raw, matches int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.QueryContext(context.Background(), remote, ranges[i%len(ranges)])
		if err != nil {
			b.Fatal(err)
		}
		raw += res.Stats.Raw
		matches += res.Stats.Matches
	}
	b.ReportMetric(float64(raw)/float64(b.N), "rawids/op")
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}

// BenchmarkQuadratic_Build exercises the naive baseline at its natural
// (tiny) scale for completeness.
func BenchmarkQuadratic_Build(b *testing.B) {
	tuples := dataset.Uniform(200, 6, 13)
	var size int
	for i := 0; i < b.N; i++ {
		c, err := rsse.NewClient(rsse.Quadratic, 6, rsse.WithSeed(14))
		if err != nil {
			b.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			b.Fatal(err)
		}
		size = idx.Size()
	}
	b.ReportMetric(float64(size)/(1<<20), "index_MB")
}
