package rsse_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"rsse"
	"rsse/internal/core"
)

func cachedSetup(t *testing.T) (*rsse.CachedClient, []rsse.Tuple) {
	t.Helper()
	tuples := genTuples(300, 10, 31)
	client, err := rsse.NewClient(rsse.ConstantURC, 10, rsse.WithSeed(32))
	if err != nil {
		t.Fatal(err)
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := rsse.NewCachedClient(client, index)
	if err != nil {
		t.Fatal(err)
	}
	return cc, tuples
}

func TestCachedClientSubrangeHit(t *testing.T) {
	cc, tuples := cachedSetup(t)
	big := rsse.Range{Lo: 100, Hi: 500}
	res1, err := cc.QueryContext(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(sorted(res1.Matches), oracle(tuples, big)) {
		t.Fatal("first query wrong")
	}
	// A sub-range intersects history but is fully covered: must be served
	// from cache, with zero protocol rounds.
	sub := rsse.Range{Lo: 150, Hi: 320}
	res2, err := cc.QueryContext(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Rounds != 0 {
		t.Errorf("cache hit contacted the server (%d rounds)", res2.Stats.Rounds)
	}
	if !equal(sorted(res2.Matches), oracle(tuples, sub)) {
		t.Error("cached answer wrong")
	}
}

func TestCachedClientDisjointGoesToServer(t *testing.T) {
	cc, tuples := cachedSetup(t)
	if _, err := cc.QueryContext(context.Background(), rsse.Range{Lo: 0, Hi: 100}); err != nil {
		t.Fatal(err)
	}
	res, err := cc.QueryContext(context.Background(), rsse.Range{Lo: 200, Hi: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds == 0 {
		t.Error("disjoint query did not reach the server")
	}
	if !equal(sorted(res.Matches), oracle(tuples, rsse.Range{Lo: 200, Hi: 300})) {
		t.Error("disjoint query wrong")
	}
}

func TestCachedClientPartialOverlapRejected(t *testing.T) {
	cc, _ := cachedSetup(t)
	if _, err := cc.QueryContext(context.Background(), rsse.Range{Lo: 100, Hi: 200}); err != nil {
		t.Fatal(err)
	}
	// Intersects history but extends beyond it: neither servable from
	// cache nor allowed at the server.
	_, err := cc.QueryContext(context.Background(), rsse.Range{Lo: 150, Hi: 400})
	if !errors.Is(err, rsse.ErrNotCached) {
		t.Errorf("partial overlap error = %v", err)
	}
}

func TestCachedClientUnionCoverage(t *testing.T) {
	cc, tuples := cachedSetup(t)
	// Two disjoint-but-adjacent queries whose union covers a later one.
	if _, err := cc.QueryContext(context.Background(), rsse.Range{Lo: 100, Hi: 300}); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.QueryContext(context.Background(), rsse.Range{Lo: 301, Hi: 600}); err != nil {
		t.Fatal(err)
	}
	if got := len(cc.CachedRanges()); got != 1 {
		t.Errorf("adjacent ranges not merged: %v", cc.CachedRanges())
	}
	res, err := cc.QueryContext(context.Background(), rsse.Range{Lo: 250, Hi: 450})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 0 {
		t.Error("union-covered query reached the server")
	}
	if !equal(sorted(res.Matches), oracle(tuples, rsse.Range{Lo: 250, Hi: 450})) {
		t.Error("union-covered answer wrong")
	}
}

func TestCachedClientExactRepeat(t *testing.T) {
	cc, tuples := cachedSetup(t)
	q := rsse.Range{Lo: 700, Hi: 900}
	if _, err := cc.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	res, err := cc.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 0 {
		t.Error("repeated query reached the server")
	}
	if !equal(sorted(res.Matches), oracle(tuples, q)) {
		t.Error("repeated answer wrong")
	}
}

// TestCachedClientConcurrent hammers one CachedClient from many
// goroutines — the shape it has when fronting a concurrent scatter-
// gather executor. Run under -race, this is the concurrency-safety
// check; functionally, every answer must match the plaintext oracle and
// repeated rounds must be served from cache.
func TestCachedClientConcurrent(t *testing.T) {
	cc, tuples := cachedSetup(t)
	// Disjoint stripes, one per goroutine, so the Constant schemes' non-
	// intersection rule holds no matter how the queries interleave; each
	// goroutine then re-queries sub-ranges expecting cache hits.
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stripe := rsse.Range{Lo: uint64(g * 128), Hi: uint64(g*128 + 127)}
			if _, err := cc.QueryContext(context.Background(), stripe); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 10; i++ {
				sub := rsse.Range{Lo: stripe.Lo + uint64(i), Hi: stripe.Hi - uint64(i)}
				res, err := cc.QueryContext(context.Background(), sub)
				if err != nil {
					errs <- err
					return
				}
				if res.Stats.Rounds != 0 {
					// The stripe was cached by this goroutine already.
					errs <- errors.New("covered sub-range reached the server")
					return
				}
				if !equal(sorted(res.Matches), oracle(tuples, sub)) {
					errs <- errors.New("concurrent cached answer wrong")
					return
				}
				_ = cc.CachedRanges()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(cc.CachedRanges()); got != 1 {
		t.Errorf("adjacent stripes did not merge: %v", cc.CachedRanges())
	}
}

func TestCachedClientRejectsNonConstant(t *testing.T) {
	client, err := rsse.NewClient(rsse.LogarithmicBRC, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rsse.NewCachedClient(client, nil); err == nil {
		t.Error("non-Constant client accepted")
	}
}

var errTransient = errors.New("transient")

// failFirstFetch fails its first FetchMany with errTransient and counts
// the searches that reach it.
type failFirstFetch struct {
	rsse.Source
	failed   atomic.Bool
	searches atomic.Int64
}

func (s *failFirstFetch) SearchContext(ctx context.Context, t *rsse.Trapdoor) (*core.Response, error) {
	s.searches.Add(1)
	return s.Source.SearchContext(ctx, t)
}

func (s *failFirstFetch) FetchMany(ctx context.Context, ids []rsse.ID) ([][]byte, error) {
	if s.failed.CompareAndSwap(false, true) {
		return nil, errTransient
	}
	return s.Source.FetchMany(ctx, ids)
}

// TestCachedClientRetriesFailedFetch: a value fetch that fails after the
// server answered fails the call, but the range stays answered — the
// wrapped client has it in its history — so a retry, and a sub-range,
// are answered from the cache with zero searches instead of being
// refused as intersecting.
func TestCachedClientRetriesFailedFetch(t *testing.T) {
	tuples := genTuples(100, 8, 41)
	client, err := rsse.NewClient(rsse.ConstantBRC, 8, rsse.WithSeed(42))
	must(t, err)
	index, err := client.BuildIndex(tuples)
	must(t, err)
	src := &failFirstFetch{Source: index}
	cc, err := rsse.NewCachedClient(client, src)
	must(t, err)
	ctx := context.Background()
	q := rsse.Range{Lo: 10, Hi: 20}
	if len(oracle(tuples, q)) == 0 {
		t.Fatalf("%v matches nothing; the fetch would not run", q)
	}
	if _, err := cc.QueryContext(ctx, q); !errors.Is(err, errTransient) {
		t.Fatalf("first query: err %v, want the fetch's error", err)
	}
	searches := src.searches.Load()
	for _, r := range []rsse.Range{q, {Lo: 12, Hi: 14}} {
		res, err := cc.QueryContext(ctx, r)
		if err != nil {
			t.Fatalf("%v after a failed fetch: %v", r, err)
		}
		if !equal(sorted(res.Matches), oracle(tuples, r)) {
			t.Fatalf("%v: matches %v, want %v", r, sorted(res.Matches), oracle(tuples, r))
		}
	}
	if n := src.searches.Load() - searches; n != 0 {
		t.Fatalf("retries searched the server %d times, want 0", n)
	}
}

// TestCachedClientBoundToSource: a cache answers only for the index it
// was filled from. One client builds two indexes; a cache over A answers
// [0,10], and a cache over B, asked [2,6], which A's answer covers, must
// give B's answer or an error — never A's ids.
func TestCachedClientBoundToSource(t *testing.T) {
	client, err := rsse.NewClient(rsse.ConstantBRC, 8, rsse.WithSeed(43))
	must(t, err)
	a, err := client.BuildIndex([]rsse.Tuple{{ID: 1, Value: 3}, {ID: 2, Value: 4}})
	must(t, err)
	bTuples := []rsse.Tuple{{ID: 7, Value: 3}, {ID: 8, Value: 5}}
	b, err := client.BuildIndex(bTuples)
	must(t, err)
	ccA, err := rsse.NewCachedClient(client, a)
	must(t, err)
	ccB, err := rsse.NewCachedClient(client, b)
	must(t, err)
	ctx := context.Background()
	res, err := ccA.QueryContext(ctx, rsse.Range{Lo: 0, Hi: 10})
	must(t, err)
	if got := sorted(res.Matches); !equal(got, []rsse.ID{1, 2}) {
		t.Fatalf("A [0,10]: %v, want [1 2]", got)
	}
	q := rsse.Range{Lo: 2, Hi: 6}
	res, err = ccB.QueryContext(ctx, q)
	switch {
	case errors.Is(err, rsse.ErrIntersectingQuery):
		// The client's Constant history holds [0,10] from A.
	case err != nil:
		t.Fatalf("B %v: %v", q, err)
	case !equal(sorted(res.Matches), oracle(bTuples, q)):
		t.Fatalf("B %v: %v, want B's %v", q, sorted(res.Matches), oracle(bTuples, q))
	}
	if got := ccB.CachedRanges(); len(got) != 0 {
		t.Fatalf("B's cache holds %v after a refused query", got)
	}
}
