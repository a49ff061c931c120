package rsse_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"rsse"
)

func TestPublicAPIQuickstart(t *testing.T) {
	client, err := rsse.NewClient(rsse.LogarithmicSRCi, 20)
	must(t, err)
	index, err := client.BuildIndex([]rsse.Tuple{
		{ID: 1, Value: 1000, Payload: []byte("alice")},
		{ID: 2, Value: 2000, Payload: []byte("bob")},
		{ID: 3, Value: 1400},
	})
	must(t, err)
	res, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 500, Hi: 1500})
	must(t, err)
	if !equal(sorted(res.Matches), []rsse.ID{1, 3}) {
		t.Fatalf("Matches = %v", res.Matches)
	}
	got, err := client.FetchTuples(context.Background(), index, []rsse.ID{1})
	must(t, err)
	if string(got[0].Payload) != "alice" || got[0].Value != 1000 {
		t.Fatalf("FetchTuples = %+v", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := rsse.NewClient(rsse.LogarithmicBRC, 70); err == nil {
		t.Error("oversized domain accepted")
	}
	if _, err := rsse.NewClient(rsse.LogarithmicBRC, 10, rsse.WithSSE("nope")); err == nil {
		t.Error("unknown SSE accepted")
	}
	if _, err := rsse.NewClient(rsse.LogarithmicBRC, 10, rsse.WithMasterKey([]byte{1})); err == nil {
		t.Error("short master key accepted")
	}
	if _, err := rsse.NewClient(rsse.LogarithmicBRC, 10, rsse.WithTSetParams(0, 1.1)); err == nil {
		t.Error("zero bucket capacity accepted")
	}
	if _, err := rsse.NewClient(rsse.LogarithmicBRC, 10, rsse.WithTSetParams(10, 0.5)); err == nil {
		t.Error("sub-1 expansion accepted")
	}
	if _, err := rsse.NewClient(rsse.LogarithmicBRC, 10, rsse.WithPackedBlockSize(0)); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := rsse.NewClient(rsse.LogarithmicBRC, 10, rsse.WithQuadraticMaxBits(0)); err == nil {
		t.Error("zero quadratic max bits accepted")
	}
}

// TestSSEConstructionsViaOptions: each construction option the
// conformance harness builds with selects the construction it is named
// for, and an index built on it answers as the model does.
func TestSSEConstructionsViaOptions(t *testing.T) {
	tuples := genTuples(150, 10, 22)
	q := rsse.Range{Lo: 100, Hi: 700}
	for name, opt := range constructions {
		client, err := rsse.NewClient(rsse.LogarithmicBRC, 10, opt, rsse.WithSeed(21))
		must(t, err)
		if client.SSEName() != name {
			t.Errorf("SSEName = %q, want %q", client.SSEName(), name)
		}
		index, err := client.BuildIndex(tuples)
		must(t, err)
		res, err := client.QueryContext(context.Background(), index, q)
		must(t, err)
		if !equal(sorted(res.Matches), oracle(tuples, q)) {
			t.Errorf("%s: wrong matches", name)
		}
	}
}

func TestMasterKeyReproducibility(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	tuples := genTuples(50, 8, 4)
	c1, err := rsse.NewClient(rsse.LogarithmicBRC, 8, rsse.WithMasterKey(key), rsse.WithSeed(1))
	must(t, err)
	index, err := c1.BuildIndex(tuples)
	must(t, err)
	// A second client with the same master key can query the index.
	c2, err := rsse.NewClient(rsse.LogarithmicBRC, 8, rsse.WithMasterKey(key), rsse.WithSeed(2))
	must(t, err)
	q := rsse.Range{Lo: 0, Hi: 128}
	res, err := c2.QueryContext(context.Background(), index, q)
	must(t, err)
	if !equal(sorted(res.Matches), oracle(tuples, q)) {
		t.Error("rebuilt client cannot query the index")
	}
}

func TestConstantGuardThroughPublicAPI(t *testing.T) {
	client, err := rsse.NewClient(rsse.ConstantURC, 10)
	must(t, err)
	index, err := client.BuildIndex(genTuples(50, 10, 5))
	must(t, err)
	if _, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 0, Hi: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 50, Hi: 150}); !errors.Is(err, rsse.ErrIntersectingQuery) {
		t.Errorf("intersecting query error = %v", err)
	}
	client.ResetHistory()
	if _, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 50, Hi: 150}); err != nil {
		t.Errorf("query after reset: %v", err)
	}
}

// TestConstantGuardConcurrent: 16 goroutines issue the same range at
// once on one guarded Constant client. Checking the history and
// recording the range are one step, so exactly one query proceeds and
// every other is refused as intersecting; the one that ran stays in the
// history.
func TestConstantGuardConcurrent(t *testing.T) {
	const goroutines = 16
	for _, kind := range []rsse.Kind{rsse.ConstantBRC, rsse.ConstantURC} {
		t.Run(kind.String(), func(t *testing.T) {
			tuples := genTuples(300, 10, 111)
			client, err := rsse.NewClient(kind, 10, rsse.WithSeed(111))
			must(t, err)
			index, err := client.BuildIndex(tuples)
			must(t, err)
			q := rsse.Range{Lo: 100, Hi: 600}
			var mu sync.Mutex
			ran := 0
			concurrently(t, goroutines, func(g int) error {
				res, err := client.QueryContext(context.Background(), index, q)
				switch {
				case errors.Is(err, rsse.ErrIntersectingQuery):
					return nil
				case err != nil:
					return fmt.Errorf("goroutine %d: %w", g, err)
				}
				mu.Lock()
				ran++
				mu.Unlock()
				if !equal(sorted(res.Matches), oracle(tuples, q)) {
					return fmt.Errorf("goroutine %d: %v: wrong matches", g, q)
				}
				return nil
			})
			if ran != 1 {
				t.Fatalf("%d of %d concurrent queries of %v ran, want exactly 1", ran, goroutines, q)
			}
			if _, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 600, Hi: 700}); !errors.Is(err, rsse.ErrIntersectingQuery) {
				t.Fatalf("intersecting query after the concurrent round: err %v, want ErrIntersectingQuery", err)
			}
		})
	}
}

func TestTrapdoorCostShapes(t *testing.T) {
	// Constant query size for the SRC schemes, logarithmic for the rest —
	// the Figure 8(a) shapes.
	for _, tc := range []struct {
		kind       rsse.Kind
		wantTokens func(int) bool
	}{
		{rsse.LogarithmicSRC, func(n int) bool { return n == 1 }},
		{rsse.LogarithmicSRCi, func(n int) bool { return n == 2 }},
		{rsse.LogarithmicBRC, func(n int) bool { return n >= 1 && n <= 16 }},
		{rsse.ConstantURC, func(n int) bool { return n >= 1 && n <= 16 }},
	} {
		client, err := rsse.NewClient(tc.kind, 20)
		must(t, err)
		for _, R := range []uint64{1, 10, 100} {
			tokens, bytes, err := client.TrapdoorCost(rsse.Range{Lo: 5000, Hi: 5000 + R - 1})
			must(t, err)
			if !tc.wantTokens(tokens) {
				t.Errorf("%v R=%d: %d tokens", tc.kind, R, tokens)
			}
			if bytes <= 0 {
				t.Errorf("%v R=%d: %d bytes", tc.kind, R, bytes)
			}
		}
	}
}

func TestDynamicThroughPublicAPI(t *testing.T) {
	d, err := rsse.NewDynamic(rsse.LogarithmicBRC, 12, 0, rsse.WithSeed(6))
	must(t, err)
	d.Insert(1, 100, []byte("a"))
	d.Insert(2, 200, []byte("b"))
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.Modify(1, 100, 300, []byte("a2"))
	d.Delete(2, 200)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	tuples, stats, err := d.QueryContext(context.Background(), rsse.Range{Lo: 0, Hi: 4095})
	must(t, err)
	if len(tuples) != 1 || tuples[0].ID != 1 || tuples[0].Value != 300 || string(tuples[0].Payload) != "a2" {
		t.Fatalf("dynamic query = %+v", tuples)
	}
	if stats.Indexes != d.ActiveIndexes() || d.Batches() != 2 {
		t.Errorf("stats/accessors wrong: %+v", stats)
	}
	if err := d.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	if d.ActiveIndexes() != 1 {
		t.Errorf("ActiveIndexes after consolidation = %d", d.ActiveIndexes())
	}
	if d.TotalIndexSize() <= 0 {
		t.Error("TotalIndexSize not positive")
	}
	if _, err := rsse.NewDynamic(rsse.LogarithmicBRC, 12, 1); err == nil {
		t.Error("step 1 accepted")
	}
	if _, err := rsse.NewDynamic(rsse.LogarithmicBRC, 99, 0); err == nil {
		t.Error("oversized domain accepted")
	}
}

func TestShardedDynamicThroughPublicAPI(t *testing.T) {
	d, err := rsse.NewShardedDynamic(rsse.LogarithmicBRC, 12, 4, 0, rsse.WithSeed(6))
	must(t, err)
	if d.Shards() != 4 {
		t.Fatalf("Shards = %d", d.Shards())
	}
	// One tuple per shard, ids 1..4.
	for i := 0; i < 4; i++ {
		r := d.ShardRange(i)
		d.Insert(uint64(i+1), r.Lo+1, []byte{byte(i)})
	}
	if d.Pending() != 4 {
		t.Fatalf("Pending = %d", d.Pending())
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	full := rsse.Range{Lo: 0, Hi: 4095}
	tuples, stats, err := d.QueryContext(context.Background(), full)
	must(t, err)
	if len(tuples) != 4 {
		t.Fatalf("query = %d tuples", len(tuples))
	}
	if stats.Indexes != d.ActiveIndexes() {
		t.Errorf("stats.Indexes = %d, active = %d", stats.Indexes, d.ActiveIndexes())
	}

	// Cross-shard modify: tuple 1 moves from shard 0 to shard 3.
	oldVal := d.ShardRange(0).Lo + 1
	newVal := d.ShardRange(3).Lo + 7
	if d.ShardOf(oldVal) == d.ShardOf(newVal) {
		t.Fatal("test premise: values on distinct shards")
	}
	d.Modify(1, oldVal, newVal, []byte("moved"))
	// Same-shard modify: tuple 2 moves within shard 1.
	d.Modify(2, d.ShardRange(1).Lo+1, d.ShardRange(1).Hi, []byte("stayed"))
	// Delete tuple 3 on its own shard.
	d.Delete(3, d.ShardRange(2).Lo+1)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	tuples, _, err = d.QueryContext(context.Background(), full)
	must(t, err)
	byID := map[uint64]rsse.Tuple{}
	for _, tup := range tuples {
		byID[tup.ID] = tup
	}
	if len(byID) != 3 {
		t.Fatalf("after updates: %d live tuples (%v)", len(byID), byID)
	}
	if got := byID[1]; got.Value != newVal || string(got.Payload) != "moved" {
		t.Fatalf("cross-shard move: %+v", got)
	}
	if got := byID[2]; got.Value != d.ShardRange(1).Hi || string(got.Payload) != "stayed" {
		t.Fatalf("same-shard modify: %+v", got)
	}
	if _, dead := byID[3]; dead {
		t.Fatal("deleted tuple still live")
	}
	// A query clipped to the old shard must not resurrect the mover.
	sr0 := d.ShardRange(0)
	tuples, _, err = d.QueryContext(context.Background(), rsse.Range{Lo: sr0.Lo, Hi: sr0.Hi})
	must(t, err)
	for _, tup := range tuples {
		if tup.ID == 1 {
			t.Fatal("moved tuple still answered by old shard")
		}
	}

	if err := d.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	// Only shards that ever flushed hold an index; none holds more than one.
	if d.ActiveIndexes() > d.Shards() {
		t.Fatalf("ActiveIndexes = %d after consolidation", d.ActiveIndexes())
	}
	tuples, _, err = d.QueryContext(context.Background(), full)
	must(t, err)
	if len(tuples) != 3 {
		t.Fatalf("after consolidation: %d tuples", len(tuples))
	}
	if d.TotalIndexSize() <= 0 || d.Batches() == 0 {
		t.Error("size/batch accounting wrong")
	}

	if _, err := rsse.NewShardedDynamic(rsse.LogarithmicBRC, 12, 0, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := rsse.NewShardedDynamic(rsse.LogarithmicBRC, 12, 4, 1); err == nil {
		t.Error("step 1 accepted")
	}
}

func TestDomainHelpers(t *testing.T) {
	d, err := rsse.NewDomain(16)
	if err != nil || d.Size() != 65536 {
		t.Fatalf("NewDomain: %v %v", d, err)
	}
	if _, err := rsse.NewDomain(63); err == nil {
		t.Error("63-bit domain accepted")
	}
	if rsse.FitDomain(276840).Bits != 19 {
		t.Errorf("FitDomain(276840).Bits = %d", rsse.FitDomain(276840).Bits)
	}
	if _, err := rsse.KindByName("Logarithmic-SRC-i"); err != nil {
		t.Error(err)
	}
}
