package rsse_test

import (
	"context"
	"fmt"
	mrand "math/rand"
	"net"
	"sort"
	"testing"

	"rsse"
)

// batchDomainBits returns a per-scheme domain size: the Quadratic
// baseline needs a tiny domain, everything else runs on 2^10.
func batchDomainBits(kind rsse.Kind) uint8 {
	if kind == rsse.Quadratic {
		return 6
	}
	return 10
}

// batchTestData builds a client+index+tuples for one scheme, with
// intersecting queries allowed so randomized overlapping batches apply
// to the Constant schemes too.
func batchTestData(t *testing.T, kind rsse.Kind, seed int64) (*rsse.Client, *rsse.Index, []rsse.Tuple) {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(seed)
	}
	bits := batchDomainBits(kind)
	client, err := rsse.NewClient(kind, bits,
		rsse.WithSeed(seed), rsse.WithMasterKey(key), rsse.AllowIntersectingQueries())
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(seed))
	n := 300
	if kind == rsse.Quadratic {
		n = 100
	}
	tuples := make([]rsse.Tuple, n)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % (1 << bits)}
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return client, index, tuples
}

// overlappingRanges draws n randomized ranges biased toward a hot region
// so covers overlap heavily, plus degenerate cases (single points, the
// full domain).
func overlappingRanges(bits uint8, n int, seed int64) []rsse.Range {
	rnd := mrand.New(mrand.NewSource(seed))
	m := uint64(1) << bits
	out := make([]rsse.Range, 0, n)
	for len(out) < n {
		switch len(out) % 5 {
		case 0: // hot-region window
			lo := rnd.Uint64() % (m / 2)
			w := 1 + rnd.Uint64()%(m/4)
			hi := lo + w
			if hi >= m {
				hi = m - 1
			}
			out = append(out, rsse.Range{Lo: lo, Hi: hi})
		case 1: // single point
			v := rnd.Uint64() % m
			out = append(out, rsse.Range{Lo: v, Hi: v})
		case 2: // full domain
			out = append(out, rsse.Range{Lo: 0, Hi: m - 1})
		default: // anywhere
			lo := rnd.Uint64() % m
			hi := lo + rnd.Uint64()%(m-lo)
			out = append(out, rsse.Range{Lo: lo, Hi: hi})
		}
	}
	return out
}

func sortedIDs(ids []rsse.ID) []rsse.ID {
	out := append([]rsse.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []rsse.ID) bool {
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

// checkBatchAgainstSequential asserts that per-range batch results are
// identical (as id multisets — token order is permuted per run) to the
// sequential baseline, and that every Matches set equals the plaintext
// ground truth.
func checkBatchAgainstSequential(t *testing.T, ranges []rsse.Range, tuples []rsse.Tuple,
	seq []*rsse.Result, batch []*rsse.Result) {
	t.Helper()
	if len(batch) != len(ranges) {
		t.Fatalf("batch returned %d results for %d ranges", len(batch), len(ranges))
	}
	for i, q := range ranges {
		want := matchesOf(tuples, q)
		gotM := sortedIDs(batch[i].Matches)
		if !equalIDs(gotM, want) {
			t.Fatalf("range %d %v: batch matches %d ids, ground truth %d", i, q, len(gotM), len(want))
		}
		if !equalIDs(gotM, sortedIDs(seq[i].Matches)) {
			t.Fatalf("range %d %v: batch and sequential matches differ", i, q)
		}
		if !equalIDs(sortedIDs(batch[i].Raw), sortedIDs(seq[i].Raw)) {
			t.Fatalf("range %d %v: batch raw (%d ids) != sequential raw (%d ids)",
				i, q, len(batch[i].Raw), len(seq[i].Raw))
		}
		if batch[i].Stats.Raw != len(batch[i].Raw) || batch[i].Stats.Matches != len(batch[i].Matches) {
			t.Fatalf("range %d %v: stats disagree with result slices", i, q)
		}
		// The structural leakage accounting must agree too: same group
		// sizes, as multisets (order is permuted vs cover order).
		gotG := append([]int(nil), batch[i].Stats.Groups...)
		wantG := append([]int(nil), seq[i].Stats.Groups...)
		sort.Ints(gotG)
		sort.Ints(wantG)
		if len(gotG) != len(wantG) {
			t.Fatalf("range %d %v: batch records %d groups, sequential %d", i, q, len(gotG), len(wantG))
		}
		for j := range gotG {
			if gotG[j] != wantG[j] {
				t.Fatalf("range %d %v: group-size multisets differ: %v vs %v", i, q, gotG, wantG)
			}
		}
	}
}

// TestQueryBatchDifferentialLocal proves QueryBatch over randomized
// overlapping ranges returns per-range results identical to a sequential
// Query loop, for every scheme, against a local index.
func TestQueryBatchDifferentialLocal(t *testing.T) {
	for _, kind := range rsse.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			client, index, tuples := batchTestData(t, kind, 51)
			ranges := overlappingRanges(batchDomainBits(kind), 25, 52)
			seq := make([]*rsse.Result, len(ranges))
			for i, q := range ranges {
				res, err := client.Query(index, q)
				if err != nil {
					t.Fatalf("sequential %v: %v", q, err)
				}
				seq[i] = res
			}
			br, err := client.QueryBatch(index, ranges)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchAgainstSequential(t, ranges, tuples, seq, br.Results)
			if br.Stats.CoverNodes < br.Stats.UniqueTokens {
				t.Fatalf("dedup produced more tokens (%d) than cover nodes (%d)",
					br.Stats.UniqueTokens, br.Stats.CoverNodes)
			}
			if br.Stats.Ranges != len(ranges) {
				t.Fatalf("batch stats report %d ranges, want %d", br.Stats.Ranges, len(ranges))
			}
		})
	}
}

// TestQueryBatchDifferentialRemote is the same differential over a
// served connection: one search frame per round instead of one frame per
// range.
func TestQueryBatchDifferentialRemote(t *testing.T) {
	for _, kind := range rsse.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			client, index, tuples := batchTestData(t, kind, 61)
			cliConn, srvConn := net.Pipe()
			go func() { _ = rsse.ServeConn(srvConn, index) }()
			remote := rsse.NewRemoteIndex(cliConn)
			defer remote.Close()

			ranges := overlappingRanges(batchDomainBits(kind), 20, 62)
			seq := make([]*rsse.Result, len(ranges))
			for i, q := range ranges {
				res, err := client.QueryRemote(remote, q)
				if err != nil {
					t.Fatalf("sequential %v: %v", q, err)
				}
				seq[i] = res
			}
			br, err := client.QueryBatchRemote(remote, ranges)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchAgainstSequential(t, ranges, tuples, seq, br.Results)
		})
	}
}

// TestQueryBatchDifferentialCluster runs the differential across a
// 3-shard cluster: ranges group by owning shard, one batched sub-query
// per shard, merged per input range.
func TestQueryBatchDifferentialCluster(t *testing.T) {
	for _, kind := range rsse.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			bits := batchDomainBits(kind)
			_, _, tuples := batchTestData(t, kind, 71)
			cluster, err := rsse.BuildCluster(kind, bits, 3, tuples,
				rsse.WithShardOptions(rsse.WithSeed(71), rsse.AllowIntersectingQueries()))
			if err != nil {
				t.Fatal(err)
			}
			ranges := overlappingRanges(bits, 20, 72)
			seq := make([]*rsse.Result, len(ranges))
			for i, q := range ranges {
				res, err := cluster.Query(q)
				if err != nil {
					t.Fatalf("sequential %v: %v", q, err)
				}
				seq[i] = &res.Result
			}
			br, err := cluster.QueryBatch(ranges)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchAgainstSequential(t, ranges, tuples, seq, br.Results)
			if len(br.Shards) == 0 || len(br.Shards) > cluster.Shards() {
				t.Fatalf("batch touched %d shards of %d", len(br.Shards), cluster.Shards())
			}
		})
	}
}

// TestQueryBatchDedup asserts the point of the pipeline: heavily
// overlapping covers collapse, so far fewer tokens cross the wire than a
// sequential loop would send.
func TestQueryBatchDedup(t *testing.T) {
	client, index, _ := batchTestData(t, rsse.LogarithmicBRC, 81)
	// 64 windows sliding one value at a time over a hot region: covers
	// share nearly every node.
	ranges := make([]rsse.Range, 64)
	for i := range ranges {
		ranges[i] = rsse.Range{Lo: uint64(100 + i), Hi: uint64(400 + i)}
	}
	br, err := client.QueryBatch(index, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := br.Stats.DedupRatio(); ratio < 2 {
		t.Fatalf("dedup ratio %.2f for sliding windows, expected >= 2 (cover nodes %d, unique %d)",
			ratio, br.Stats.CoverNodes, br.Stats.UniqueTokens)
	}
}

// TestQueryBatchEmptyAndSingle covers the degenerate batch shapes.
func TestQueryBatchEmptyAndSingle(t *testing.T) {
	client, index, tuples := batchTestData(t, rsse.LogarithmicSRC, 91)
	br, err := client.QueryBatch(index, nil)
	if err != nil || len(br.Results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(br.Results))
	}
	q := rsse.Range{Lo: 10, Hi: 500}
	br, err = client.QueryBatch(index, []rsse.Range{q})
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(br.Results[0].Matches), matchesOf(tuples, q)) {
		t.Fatal("single-range batch differs from ground truth")
	}
}

// TestConstantBatchGuards: within one batch, intersecting ranges are
// rejected up front for the Constant schemes, and a successful batch
// enters the history atomically.
func TestConstantBatchGuards(t *testing.T) {
	key := make([]byte, 32)
	client, err := rsse.NewClient(rsse.ConstantBRC, 10, rsse.WithSeed(5), rsse.WithMasterKey(key))
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(5))
	tuples := make([]rsse.Tuple, 200)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % 1024}
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryBatch(index, []rsse.Range{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 200}}); err == nil {
		t.Fatal("intersecting ranges within one batch accepted")
	}
	// The failed batch must not have entered history: disjoint retry works.
	if _, err := client.QueryBatch(index, []rsse.Range{{Lo: 0, Hi: 100}, {Lo: 200, Hi: 300}}); err != nil {
		t.Fatalf("disjoint batch after failed batch: %v", err)
	}
	// Now both ranges are history: an intersecting single query fails.
	if _, err := client.Query(index, rsse.Range{Lo: 90, Hi: 95}); err == nil {
		t.Fatal("query intersecting batched history accepted")
	}
}

// TestCachedClientQueryBatch: covered ranges answer locally, misses go
// to the server as one batch, and the batch warms the cache.
func TestCachedClientQueryBatch(t *testing.T) {
	key := make([]byte, 32)
	client, err := rsse.NewClient(rsse.ConstantURC, 10, rsse.WithSeed(7), rsse.WithMasterKey(key))
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(7))
	tuples := make([]rsse.Tuple, 200)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % 1024}
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := rsse.NewCachedClient(client)
	if err != nil {
		t.Fatal(err)
	}
	// First batch: two disjoint ranges hit the server.
	first := []rsse.Range{{Lo: 0, Hi: 200}, {Lo: 500, Hi: 700}}
	res, err := cc.QueryBatch(index, first)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range first {
		if !equalIDs(sortedIDs(res[i].Matches), matchesOf(tuples, q)) {
			t.Fatalf("first batch range %v wrong", q)
		}
	}
	// Second batch: two sub-ranges answer from cache (Rounds == 0), one
	// new range batches to the server.
	second := []rsse.Range{{Lo: 50, Hi: 150}, {Lo: 600, Hi: 650}, {Lo: 800, Hi: 900}}
	res, err = cc.QueryBatch(index, second)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range second {
		if !equalIDs(sortedIDs(res[i].Matches), matchesOf(tuples, q)) {
			t.Fatalf("second batch range %v wrong", q)
		}
	}
	if res[0].Stats.Rounds != 0 || res[1].Stats.Rounds != 0 {
		t.Fatal("covered sub-ranges were not served from cache")
	}
	if res[2].Stats.Rounds == 0 {
		t.Fatal("uncovered range did not reach the server")
	}
	// A miss intersecting cached history but not covered fails the batch.
	if _, err := cc.QueryBatch(index, []rsse.Range{{Lo: 150, Hi: 250}}); err == nil {
		t.Fatal("intersecting uncovered miss accepted")
	}
}

// TestDynamicQueryBatch: the batched path over live LSM epochs agrees
// with the sequential one, tombstones included.
func TestDynamicQueryBatch(t *testing.T) {
	d, err := rsse.NewDynamic(rsse.LogarithmicBRC, 10, 2, rsse.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(9))
	id := uint64(1)
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 40; i++ {
			d.Insert(id, rnd.Uint64()%1024, []byte(fmt.Sprintf("p%d", id)))
			id++
		}
		if batch == 3 {
			d.Delete(1, 0) // likely-miss tombstone; exercises resolution
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ranges := []rsse.Range{{Lo: 0, Hi: 300}, {Lo: 200, Hi: 800}, {Lo: 700, Hi: 1023}, {Lo: 0, Hi: 1023}}
	batched, bStats, err := d.QueryBatch(ranges)
	if err != nil {
		t.Fatal(err)
	}
	if bStats.Indexes != d.ActiveIndexes() {
		t.Fatalf("batch touched %d indexes, %d active", bStats.Indexes, d.ActiveIndexes())
	}
	for i, q := range ranges {
		seq, _, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := make([]rsse.ID, 0, len(seq))
		for _, tu := range seq {
			wantIDs = append(wantIDs, tu.ID)
		}
		gotIDs := make([]rsse.ID, 0, len(batched[i]))
		for _, tu := range batched[i] {
			gotIDs = append(gotIDs, tu.ID)
		}
		if !equalIDs(sortedIDs(gotIDs), sortedIDs(wantIDs)) {
			t.Fatalf("range %v: batch %d tuples, sequential %d", q, len(gotIDs), len(wantIDs))
		}
	}
}

// TestShardedDynamicQueryBatch mirrors the same differential across a
// range-partitioned updatable store.
func TestShardedDynamicQueryBatch(t *testing.T) {
	d, err := rsse.NewShardedDynamic(rsse.LogarithmicURC, 10, 3, 2, rsse.WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(10))
	for id := uint64(1); id <= 150; id++ {
		d.Insert(id, rnd.Uint64()%1024, nil)
		if id%50 == 0 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ranges := []rsse.Range{{Lo: 0, Hi: 600}, {Lo: 300, Hi: 900}, {Lo: 1000, Hi: 1023}}
	batched, _, err := d.QueryBatch(ranges)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range ranges {
		seq, _, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(batched[i]) {
			t.Fatalf("range %v: batch %d tuples, sequential %d", q, len(batched[i]), len(seq))
		}
	}
}

// TestQueryContextCancelled: an already-cancelled context fails fast on
// every layer's context variant.
func TestQueryContextCancelled(t *testing.T) {
	client, index, _ := batchTestData(t, rsse.LogarithmicBRC, 93)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.QueryContext(ctx, index, rsse.Range{Lo: 0, Hi: 100}); err == nil {
		t.Fatal("cancelled local query succeeded")
	}
	if _, err := client.QueryBatchContext(ctx, index, []rsse.Range{{Lo: 0, Hi: 100}}); err == nil {
		t.Fatal("cancelled local batch succeeded")
	}
	cluster, err := rsse.BuildCluster(rsse.LogarithmicBRC, 10, 2, nil,
		rsse.WithShardOptions(rsse.WithSeed(94)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.QueryBatchContext(ctx, []rsse.Range{{Lo: 0, Hi: 100}}); err == nil {
		t.Fatal("cancelled cluster batch succeeded")
	}
}
