package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"rsse/internal/cover"
	"rsse/internal/race"
)

// perIDServer is a Source seen through the deprecated Server.
type perIDServer struct{ s Source }

func (p perIDServer) Meta() (IndexMeta, error) { return p.s.MetaContext(context.Background()) }

func (p perIDServer) Search(t *Trapdoor) (*Response, error) {
	return p.s.SearchContext(context.Background(), t)
}

func (p perIDServer) Fetch(id ID) ([]byte, bool, error) {
	cts, err := p.s.FetchMany(context.Background(), []ID{id})
	if err != nil {
		return nil, false, err
	}
	return cts[0], cts[0] != nil, nil
}

// hideFetchMany serves x through Server and FromServer's adapter: the
// fetch round takes one Fetch per id, which is the reference the
// chunked round is compared to.
func hideFetchMany(x Source) Source { return FromServer(perIDServer{x}) }

// srcFixture builds one SRC-family index twice over: two identically
// keyed and seeded clients, so a run against the index and a run against
// its per-id wrapper draw the same permutations.
func srcFixture(t *testing.T, kind Kind) (a, b *Client, idx *Index, tuples []Tuple) {
	t.Helper()
	dom := cover.Domain{Bits: 12}
	// Half the tuples pile onto few values: wide covers, many false
	// positives, raw sets well past one fetch chunk.
	tuples = uniformTuples(1200, 12, 5)
	for i := 0; i < len(tuples); i += 2 {
		tuples[i].Value = 2000 + uint64(i%7)
		tuples[i].Payload = []byte(strings.Repeat("p", i%40))
	}
	var err error
	if a, err = NewClient(kind, dom, testOptions(3)); err != nil {
		t.Fatal(err)
	}
	if b, err = NewClient(kind, dom, testOptions(3)); err != nil {
		t.Fatal(err)
	}
	if idx, err = a.BuildIndex(tuples); err != nil {
		t.Fatal(err)
	}
	return a, b, idx, tuples
}

var srcQueries = []Range{{Lo: 0, Hi: 4095}, {Lo: 1990, Hi: 2003}, {Lo: 2004, Hi: 2004}, {Lo: 100, Hi: 900}, {Lo: 4090, Hi: 4095}}

// TestFetchRoundDifferentialLocal: against a local index the chunked
// fetch round (single frame and pipelined) must produce exactly what the
// per-id fallback produces, for Query, QueryBatch and FetchTuples.
func TestFetchRoundDifferentialLocal(t *testing.T) {
	for _, kind := range []Kind{LogarithmicSRC, LogarithmicSRCi} {
		t.Run(kind.String(), func(t *testing.T) {
			a, b, idx, tuples := srcFixture(t, kind)
			ref := hideFetchMany(idx)
			pipelined := false
			for _, q := range srcQueries {
				got, err := a.QueryContext(context.Background(), idx, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := b.QueryContext(context.Background(), ref, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Raw, want.Raw) || !reflect.DeepEqual(got.Matches, want.Matches) {
					t.Fatalf("%v: chunked fetch round diverged from per-id fallback", q)
				}
				if !idsEqual(sortedIDs(got.Matches), exactIDs(tuples, q)) {
					t.Fatalf("%v: wrong matches", q)
				}
				pipelined = pipelined || len(got.Raw) > FetchChunk
			}
			if !pipelined {
				t.Fatal("no query exceeded one fetch chunk: the pipelined path went untested")
			}

			gotB, err := a.QueryBatchContext(context.Background(), idx, srcQueries)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := b.QueryBatchContext(context.Background(), ref, srcQueries)
			if err != nil {
				t.Fatal(err)
			}
			if gotB.Stats.FetchedTuples != wantB.Stats.FetchedTuples {
				t.Fatalf("batch fetched %d tuples, fallback %d", gotB.Stats.FetchedTuples, wantB.Stats.FetchedTuples)
			}
			for i := range srcQueries {
				if !reflect.DeepEqual(gotB.Results[i].Raw, wantB.Results[i].Raw) ||
					!reflect.DeepEqual(gotB.Results[i].Matches, wantB.Results[i].Matches) {
					t.Fatalf("batch range %v diverged from per-id fallback", srcQueries[i])
				}
			}

			ids := idx.Store().IDs()
			gotT, err := a.FetchTuples(context.Background(), idx, ids)
			if err != nil {
				t.Fatal(err)
			}
			wantT, err := a.FetchTuples(context.Background(), ref, ids)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotT, wantT) {
				t.Fatal("FetchTuples diverged from per-id fallback")
			}
			for i, id := range ids {
				one, err := a.FetchTuple(perIDServer{idx}, id)
				if err != nil || !reflect.DeepEqual(one, gotT[i]) {
					t.Fatalf("FetchTuples[%d] = %+v, FetchTuple = %+v, %v", i, gotT[i], one, err)
				}
			}
		})
	}
}

// TestFetchRoundUnknownID: an id the server does not hold is an error on
// both paths, never a silently dropped tuple.
func TestFetchRoundUnknownID(t *testing.T) {
	a, _, idx, _ := srcFixture(t, LogarithmicSRC)
	for name, s := range map[string]Source{"many": idx, "per-id": hideFetchMany(idx)} {
		if _, err := a.FetchTuples(context.Background(), s, []ID{1, 999999}); err == nil {
			t.Errorf("%s: FetchTuples accepted an unknown id", name)
		}
		if _, err := a.fetchValues(context.Background(), s, []ID{1, 999999}); err == nil {
			t.Errorf("%s: fetchValues accepted an unknown id", name)
		}
	}
}

// scriptedFetcher is an index whose FetchMany answers a test scripts per
// call.
type scriptedFetcher struct {
	*Index
	calls int
	many  func(call int, ctx context.Context, ids []ID) ([][]byte, error)
}

func (s *scriptedFetcher) FetchMany(ctx context.Context, ids []ID) ([][]byte, error) {
	s.calls++
	return s.many(s.calls, ctx, ids)
}

// TestFetchRoundMiscountedResponse: a server answering with the wrong
// number of ciphertexts is rejected, in the single-frame and the
// pipelined path alike.
func TestFetchRoundMiscountedResponse(t *testing.T) {
	a, _, idx, _ := srcFixture(t, LogarithmicSRC)
	ids := idx.Store().IDs()
	for _, n := range []int{10, FetchChunk + 10} {
		s := &scriptedFetcher{Index: idx, many: func(_ int, ctx context.Context, ids []ID) ([][]byte, error) {
			cts, err := idx.FetchMany(ctx, ids)
			if err != nil {
				return nil, err // the round was cancelled after the first short chunk
			}
			return cts[1:], nil
		}}
		if _, err := a.fetchValues(context.Background(), s, ids[:n]); err == nil {
			t.Errorf("%d ids: short FetchMany response accepted", n)
		}
	}
}

// TestFetchRoundCancelMidPipeline: cancelling while a later chunk is on
// the wire returns ctx's error promptly and stops the fetcher goroutine
// (FetchEach waits for it, so returning at all proves it exited).
func TestFetchRoundCancelMidPipeline(t *testing.T) {
	a, _, idx, _ := srcFixture(t, LogarithmicSRC)
	ids := idx.Store().IDs()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &scriptedFetcher{Index: idx, many: func(call int, ctx context.Context, ids []ID) ([][]byte, error) {
		if call == 1 {
			return idx.FetchMany(ctx, ids)
		}
		cancel() // the second chunk never arrives
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	done := make(chan error, 1)
	go func() {
		_, err := a.fetchValues(ctx, s, ids[:3*FetchChunk])
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled fetch round did not return")
	}
	if s.calls != 2 {
		t.Fatalf("fetcher issued %d exchanges after cancellation, want 2", s.calls)
	}
}

// TestFilterAllocsPerID pins the filter's decrypt at zero allocations per
// id: a filter over twice the ids allocates no more objects (the fixed
// per-call cost is the values slice, the result slice and the closure).
func TestFilterAllocsPerID(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs allocation counts")
	}
	a, _, idx, _ := srcFixture(t, LogarithmicSRC)
	ids := idx.Store().IDs()
	measure := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := a.fetchValues(context.Background(), idx, ids[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(FetchChunk/2), measure(FetchChunk)
	if small != large {
		t.Errorf("filter allocates %.0f objects over %d ids but %.0f over %d: per-id allocation", small, FetchChunk/2, large, FetchChunk)
	}
	if large > 6 {
		t.Errorf("filter allocates %.0f objects per call, want a small constant", large)
	}
}
