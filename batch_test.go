package rsse_test

import (
	"context"
	mrand "math/rand"
	"testing"

	"rsse"
)

// testIndex builds seed's 300 tuples over a 2^10 domain into an index
// for kind, with a client that may ask intersecting ranges.
func testIndex(t *testing.T, kind rsse.Kind, seed int64) (*rsse.Client, *rsse.Index, []rsse.Tuple) {
	t.Helper()
	client, err := rsse.NewClient(kind, 10, rsse.WithSeed(seed), rsse.AllowIntersectingQueries())
	must(t, err)
	tuples := genTuples(300, 10, seed)
	index, err := client.BuildIndex(tuples)
	must(t, err)
	return client, index, tuples
}

// TestQueryBatchDedup asserts the point of the pipeline: heavily
// overlapping covers collapse, so far fewer tokens cross the wire than a
// sequential loop would send.
func TestQueryBatchDedup(t *testing.T) {
	client, index, _ := testIndex(t, rsse.LogarithmicBRC, 81)
	// 64 windows sliding one value at a time over a hot region: covers
	// share nearly every node.
	ranges := make([]rsse.Range, 64)
	for i := range ranges {
		ranges[i] = rsse.Range{Lo: uint64(100 + i), Hi: uint64(400 + i)}
	}
	br, err := client.QueryBatchContext(context.Background(), index, ranges)
	must(t, err)
	if ratio := br.Stats.DedupRatio(); ratio < 2 {
		t.Fatalf("dedup ratio %.2f for sliding windows, expected >= 2 (cover nodes %d, unique %d)",
			ratio, br.Stats.CoverNodes, br.Stats.UniqueTokens)
	}
}

// TestQueryBatchEmptyAndSingle covers the degenerate batch shapes.
func TestQueryBatchEmptyAndSingle(t *testing.T) {
	client, index, tuples := testIndex(t, rsse.LogarithmicSRC, 91)
	br, err := client.QueryBatchContext(context.Background(), index, nil)
	if err != nil || len(br.Results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(br.Results))
	}
	q := rsse.Range{Lo: 10, Hi: 500}
	br, err = client.QueryBatchContext(context.Background(), index, []rsse.Range{q})
	must(t, err)
	if !equal(sorted(br.Results[0].Matches), oracle(tuples, q)) {
		t.Fatal("single-range batch differs from ground truth")
	}
}

// TestConstantBatchGuards: within one batch, intersecting ranges are
// rejected up front for the Constant schemes, and a successful batch
// enters the history atomically.
func TestConstantBatchGuards(t *testing.T) {
	key := make([]byte, 32)
	client, err := rsse.NewClient(rsse.ConstantBRC, 10, rsse.WithSeed(5), rsse.WithMasterKey(key))
	must(t, err)
	rnd := mrand.New(mrand.NewSource(5))
	tuples := make([]rsse.Tuple, 200)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % 1024}
	}
	index, err := client.BuildIndex(tuples)
	must(t, err)
	if _, err := client.QueryBatchContext(context.Background(), index, []rsse.Range{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 200}}); err == nil {
		t.Fatal("intersecting ranges within one batch accepted")
	}
	// The failed batch must not have entered history: disjoint retry works.
	if _, err := client.QueryBatchContext(context.Background(), index, []rsse.Range{{Lo: 0, Hi: 100}, {Lo: 200, Hi: 300}}); err != nil {
		t.Fatalf("disjoint batch after failed batch: %v", err)
	}
	// Now both ranges are history: an intersecting single query fails.
	if _, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 90, Hi: 95}); err == nil {
		t.Fatal("query intersecting batched history accepted")
	}
}

// TestCachedClientQueryBatch: covered ranges answer locally, misses go
// to the server as one batch, and the batch warms the cache.
func TestCachedClientQueryBatch(t *testing.T) {
	key := make([]byte, 32)
	client, err := rsse.NewClient(rsse.ConstantURC, 10, rsse.WithSeed(7), rsse.WithMasterKey(key))
	must(t, err)
	rnd := mrand.New(mrand.NewSource(7))
	tuples := make([]rsse.Tuple, 200)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % 1024}
	}
	index, err := client.BuildIndex(tuples)
	must(t, err)
	cc, err := rsse.NewCachedClient(client, index)
	must(t, err)
	// First batch: two disjoint ranges hit the server.
	first := []rsse.Range{{Lo: 0, Hi: 200}, {Lo: 500, Hi: 700}}
	br, err := cc.QueryBatchContext(context.Background(), first)
	must(t, err)
	res := br.Results
	for i, q := range first {
		if !equal(sorted(res[i].Matches), oracle(tuples, q)) {
			t.Fatalf("first batch range %v wrong", q)
		}
	}
	// Second batch: two sub-ranges answer from cache (Rounds == 0), one
	// new range batches to the server.
	second := []rsse.Range{{Lo: 50, Hi: 150}, {Lo: 600, Hi: 650}, {Lo: 800, Hi: 900}}
	br, err = cc.QueryBatchContext(context.Background(), second)
	must(t, err)
	res = br.Results
	for i, q := range second {
		if !equal(sorted(res[i].Matches), oracle(tuples, q)) {
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
	if _, err := cc.QueryBatchContext(context.Background(), []rsse.Range{{Lo: 150, Hi: 250}}); err == nil {
		t.Fatal("intersecting uncovered miss accepted")
	}
}

// TestQueryContextCancelled: an already-cancelled context fails fast on
// every layer's context variant.
func TestQueryContextCancelled(t *testing.T) {
	client, index, _ := testIndex(t, rsse.LogarithmicBRC, 93)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.QueryContext(ctx, index, rsse.Range{Lo: 0, Hi: 100}); err == nil {
		t.Fatal("cancelled local query succeeded")
	}
	if _, err := client.QueryBatchContext(ctx, index, []rsse.Range{{Lo: 0, Hi: 100}}); err == nil {
		t.Fatal("cancelled local batch succeeded")
	}
	cluster, err := rsse.BuildCluster(rsse.LogarithmicBRC, 10, 2, nil,
		rsse.WithSeed(94))
	must(t, err)
	if _, err := cluster.QueryBatchContext(ctx, []rsse.Range{{Lo: 0, Hi: 100}}); err == nil {
		t.Fatal("cancelled cluster batch succeeded")
	}
}

// TestBatchResultsDoNotAlias: the results of one batch share arrays, so
// every slice a caller gets must end at its own capacity. Appending to
// one result's ids, groups and token levels leaves every other result as
// it was — for a client batch, and for a cluster batch whose ranges sit
// inside one shard (handed through) or span both (merged).
func TestBatchResultsDoNotAlias(t *testing.T) {
	ranges := []rsse.Range{{Lo: 100, Hi: 300}, {Lo: 200, Hi: 700}, {Lo: 600, Hi: 900}, {Lo: 250, Hi: 260}}
	client, index, tuples := testIndex(t, rsse.LogarithmicURC, 47)
	cluster, err := rsse.BuildCluster(rsse.ConstantURC, 10, 2, tuples, rsse.WithSeed(47), rsse.AllowIntersectingQueries())
	must(t, err)
	local, err := client.QueryBatchContext(context.Background(), index, ranges)
	must(t, err)
	sharded, err := cluster.QueryBatchContext(context.Background(), ranges)
	must(t, err)
	for name, results := range map[string][]*rsse.Result{"client": local.Results, "cluster": sharded.Results} {
		snapshot := func() [][]uint64 {
			var out [][]uint64
			for _, r := range results {
				levels := make([]uint64, len(r.Stats.TokenLevels))
				for j, l := range r.Stats.TokenLevels {
					levels[j] = uint64(l)
				}
				groups := make([]uint64, len(r.Stats.Groups))
				for j, g := range r.Stats.Groups {
					groups[j] = uint64(g)
				}
				out = append(out, append([]uint64(nil), r.Matches...), append([]uint64(nil), r.Raw...), groups, levels)
			}
			return out
		}
		before := snapshot()
		for i, r := range results {
			if !equal(sorted(r.Matches), oracle(tuples, ranges[i])) {
				t.Fatalf("%s: %v answered %v", name, ranges[i], r.Matches)
			}
			r.Matches = append(r.Matches, 1<<40)
			r.Raw = append(r.Raw, 1<<40)
			r.Stats.Groups = append(r.Stats.Groups, 1<<20)
			r.Stats.TokenLevels = append(r.Stats.TokenLevels, 63)
		}
		after := snapshot()
		for i := range before {
			if got, want := after[i][:len(before[i])], before[i]; !equal(got, want) {
				t.Fatalf("%s: appending to one result changed another's slice %d: %v, was %v", name, i, got, want)
			}
		}
	}
}
