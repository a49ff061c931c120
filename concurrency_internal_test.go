package rsse

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"

	"rsse/internal/transport"
)

// concurrently runs fn on n goroutines released at once and reports
// every error they return.
func concurrently(t *testing.T, n int, fn func(g int) error) {
	t.Helper()
	start := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			errs <- fn(g)
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// oracleIDs is the plaintext answer to q, in ascending id order.
func oracleIDs(tuples []Tuple, q Range) []ID {
	var out []ID
	for _, t := range tuples {
		if q.Contains(t.Value) {
			out = append(out, t.ID)
		}
	}
	slices.Sort(out)
	return out
}

// checkMatches compares a result's matches with the oracle's.
func checkMatches(tuples []Tuple, q Range, matches []ID) error {
	got := slices.Sorted(slices.Values(matches))
	if want := oracleIDs(tuples, q); !slices.Equal(got, want) {
		return fmt.Errorf("%v: %d matches, want %d", q, len(got), len(want))
	}
	return nil
}

// randomRanges draws n ranges over a 2^bits domain.
func randomRanges(rnd *mrand.Rand, bits uint8, n int) []Range {
	m := uint64(1) << bits
	out := make([]Range, n)
	for i := range out {
		lo := rnd.Uint64() % m
		out[i] = Range{Lo: lo, Hi: lo + rnd.Uint64()%(m-lo)}
	}
	return out
}

// TestClientConcurrentQueries: one Client per kind serves 8 goroutines
// at once — single queries and batches, against a local index and
// against a remote handle over a pipe — and every answer is the
// plaintext oracle's. Under -race this is the check that the client's
// trapdoor permutations and its memo are safe to share.
func TestClientConcurrentQueries(t *testing.T) {
	const goroutines, perGoroutine = 8, 12
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			bits, n := uint8(8), 300
			if kind == Quadratic {
				bits, n = 6, 100
			}
			tuples := clusterTestTuples(n, bits, 101)
			// Intersecting ranges are allowed so that the Constant kinds
			// take the same random stream; TestConstantGuardConcurrent
			// covers the guard.
			client, err := NewClient(kind, bits, WithSeed(101), AllowIntersectingQueries(), WithTrapdoorMemo(16))
			if err != nil {
				t.Fatal(err)
			}
			index, err := client.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			cliConn, srvConn := net.Pipe()
			go func() { _ = ServeConn(srvConn, index) }()
			remote := NewRemoteIndex(cliConn)
			t.Cleanup(func() { remote.Close() })

			ctx := context.Background()
			targets := map[string]struct {
				one   func(Range) (*Result, error)
				batch func([]Range) (*BatchResult, error)
			}{
				"local": {
					func(q Range) (*Result, error) { return client.QueryContext(ctx, index, q) },
					func(qs []Range) (*BatchResult, error) { return client.QueryBatchContext(ctx, index, qs) },
				},
				"remote": {
					func(q Range) (*Result, error) { return client.QueryRemoteContext(ctx, remote, q) },
					func(qs []Range) (*BatchResult, error) { return client.QueryBatchRemoteContext(ctx, remote, qs) },
				},
			}
			for name, target := range targets {
				t.Run(name, func(t *testing.T) {
					concurrently(t, goroutines, func(g int) error {
						rnd := mrand.New(mrand.NewSource(int64(g)))
						// A few repeated ranges, so the memo's hits race its misses.
						hot := randomRanges(rnd, bits, 4)
						for i := 0; i < perGoroutine; i++ {
							if i%3 == 2 {
								qs := randomRanges(rnd, bits, 3)
								br, err := target.batch(qs)
								if err != nil {
									return fmt.Errorf("goroutine %d: batch: %w", g, err)
								}
								for j, q := range qs {
									if err := checkMatches(tuples, q, br.Results[j].Matches); err != nil {
										return fmt.Errorf("goroutine %d: batch: %w", g, err)
									}
								}
								continue
							}
							q := hot[rnd.Intn(len(hot))]
							if i%3 == 1 {
								q = randomRanges(rnd, bits, 1)[0]
							}
							res, err := target.one(q)
							if err != nil {
								return fmt.Errorf("goroutine %d: %w", g, err)
							}
							if err := checkMatches(tuples, q, res.Matches); err != nil {
								return fmt.Errorf("goroutine %d: %w", g, err)
							}
						}
						return nil
					})
				})
			}
		})
	}
}

// TestConstantGuardConcurrent: 16 goroutines issue the same range at
// once on one guarded Constant client. Checking the history and
// recording the range are one step, so exactly one query proceeds and
// every other is refused as intersecting; the one that ran stays in the
// history.
func TestConstantGuardConcurrent(t *testing.T) {
	const goroutines = 16
	for _, kind := range []Kind{ConstantBRC, ConstantURC} {
		t.Run(kind.String(), func(t *testing.T) {
			tuples := clusterTestTuples(300, 10, 111)
			client, err := NewClient(kind, 10, WithSeed(111))
			if err != nil {
				t.Fatal(err)
			}
			index, err := client.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			q := Range{Lo: 100, Hi: 600}
			var mu sync.Mutex
			ran := 0
			concurrently(t, goroutines, func(g int) error {
				res, err := client.Query(index, q)
				switch {
				case errors.Is(err, ErrIntersectingQuery):
					return nil
				case err != nil:
					return fmt.Errorf("goroutine %d: %w", g, err)
				}
				mu.Lock()
				ran++
				mu.Unlock()
				return checkMatches(tuples, q, res.Matches)
			})
			if ran != 1 {
				t.Fatalf("%d of %d concurrent queries of %v ran, want exactly 1", ran, goroutines, q)
			}
			if _, err := client.Query(index, Range{Lo: 600, Hi: 700}); !errors.Is(err, ErrIntersectingQuery) {
				t.Fatalf("intersecting query after the concurrent round: err %v, want ErrIntersectingQuery", err)
			}
		})
	}
}

// pipeCluster dials a built cluster's shards over in-process pipes: one
// pipe per shard, each serving that shard's index.
func pipeCluster(t *testing.T, built *Cluster, opts ...ClusterOption) *Cluster {
	t.Helper()
	man := built.Manifest("pipes")
	for i := range man.Shards {
		man.Shards[i].Name = DefaultIndexName
		man.Shards[i].Addr = strconv.Itoa(i)
	}
	pool := transport.NewPoolFunc("pipe", func(_, addr string) (*transport.Conn, error) {
		i, err := strconv.Atoi(addr)
		if err != nil {
			return nil, err
		}
		cliConn, srvConn := net.Pipe()
		go func() { _ = ServeConn(srvConn, built.ShardIndex(i)) }()
		return transport.NewConn(cliConn), nil
	})
	c, cfg, err := clusterFromManifest(man, built.MasterKey(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := finishDialCluster(c, cfg, man, pool, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close() })
	return dialed
}

// TestClusterConcurrentBoundaryQueries: 8 goroutines query one 2-shard
// cluster at once with ranges that cross the shard boundary, so every
// query runs on both shard clients while the others do — single
// queries, batches and tuple fetches, on a built cluster and on one
// dialed over pipes. Every answer is the plaintext oracle's.
func TestClusterConcurrentBoundaryQueries(t *testing.T) {
	const goroutines, perGoroutine, bits = 8, 10, 10
	for _, kind := range []Kind{LogarithmicSRCi, ConstantURC} {
		t.Run(kind.String(), func(t *testing.T) {
			tuples := clusterTestTuples(400, bits, 121)
			allow := WithShardOptions(AllowIntersectingQueries())
			built, err := BuildCluster(kind, bits, 2, tuples, allow)
			if err != nil {
				t.Fatal(err)
			}
			boundary := built.ShardRange(1).Lo
			for name, cl := range map[string]*Cluster{"built": built, "dialed": pipeCluster(t, built, allow)} {
				t.Run(name, func(t *testing.T) {
					concurrently(t, goroutines, func(g int) error {
						rnd := mrand.New(mrand.NewSource(int64(g)))
						crossing := func() Range {
							return Range{Lo: boundary - 1 - rnd.Uint64()%boundary, Hi: boundary + rnd.Uint64()%boundary}
						}
						for i := 0; i < perGoroutine; i++ {
							if i%2 == 1 {
								qs := []Range{crossing(), crossing()}
								br, err := cl.QueryBatch(qs)
								if err != nil {
									return fmt.Errorf("goroutine %d: batch: %w", g, err)
								}
								for j, q := range qs {
									if err := checkMatches(tuples, q, br.Results[j].Matches); err != nil {
										return fmt.Errorf("goroutine %d: batch: %w", g, err)
									}
								}
								continue
							}
							q := crossing()
							res, err := cl.Query(q)
							if err != nil {
								return fmt.Errorf("goroutine %d: %w", g, err)
							}
							if err := checkMatches(tuples, q, res.Matches); err != nil {
								return fmt.Errorf("goroutine %d: %w", g, err)
							}
							want := tuples[rnd.Intn(len(tuples))]
							got, err := cl.FetchTuple(want.ID)
							if err != nil || got.Value != want.Value {
								return fmt.Errorf("goroutine %d: fetch %d: value %d, %v; want %d", g, want.ID, got.Value, err, want.Value)
							}
						}
						return nil
					})
				})
			}
		})
	}
}
