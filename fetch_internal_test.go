package rsse

import (
	"context"
	mrand "math/rand"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"rsse/internal/core"
)

func clusterTestTuples(n int, bits uint8, seed int64) []Tuple {
	rnd := mrand.New(mrand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % (1 << bits), Payload: []byte{byte(i)}}
	}
	return out
}

// fetchCounter counts the FetchMany calls reaching one shard target and
// records the ids they carried. A fetch round calls FetchMany from one
// goroutine at a time and joins it before returning, so seen is read
// safely once the round is over.
type fetchCounter struct {
	core.Source
	fetches atomic.Int64
	seen    []core.ID
}

func (s *fetchCounter) FetchMany(ctx context.Context, ids []core.ID) ([][]byte, error) {
	s.fetches.Add(1)
	s.seen = append(s.seen, ids...)
	return s.Source.FetchMany(ctx, ids)
}

// TestClusterFetchTupleFetchesOnce: Cluster.FetchTuples asks the
// shards in order, each for the ids no earlier shard held — exactly the
// ids a one-id probe per tuple would have shown it — in one chunked
// fetch round, ⌈n/128⌉ FetchMany calls, and decrypts the ciphertexts
// those calls returned (no second fetch).
func TestClusterFetchTupleFetchesOnce(t *testing.T) {
	const bits = 12
	tuples := clusterTestTuples(300, bits, 33)
	c, err := BuildCluster(LogarithmicSRCi, bits, 3, tuples, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]*fetchCounter, len(c.targets))
	for i := range c.targets {
		counters[i] = &fetchCounter{Source: c.targets[i]}
		c.targets[i] = counters[i]
	}
	for _, want := range [][]Tuple{tuples[:1], {tuples[299], tuples[150], tuples[0]}, tuples} {
		ids := make([]ID, len(want))
		for i, tup := range want {
			ids[i] = tup.ID
		}
		for _, fc := range counters {
			fc.fetches.Store(0)
			fc.seen = nil
		}
		got, err := c.FetchTuples(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FetchTuples(%d ids) differs from the tuples built", len(ids))
		}
		// Shard i is asked, in input order, for the ids owned by shard i
		// or later.
		for i, fc := range counters {
			var asked []ID
			for _, tup := range want {
				if c.ShardOf(tup.Value) >= i {
					asked = append(asked, tup.ID)
				}
			}
			if !reflect.DeepEqual(fc.seen, asked) {
				t.Errorf("%d ids: shard %d was asked %v, want %v", len(ids), i, fc.seen, asked)
			}
			if n, chunks := fc.fetches.Load(), int64((len(asked)+core.FetchChunk-1)/core.FetchChunk); n != chunks {
				t.Errorf("%d ids: shard %d received %d fetches for %d ids, want %d", len(ids), i, n, len(asked), chunks)
			}
		}
	}
	if _, err := c.FetchTuples(context.Background(), []ID{tuples[0].ID, 1 << 40}); err == nil {
		t.Fatal("FetchTuples accepted an unknown id")
	}
}

// TestFetchTuplesOneRound: Client.FetchTuples sends 300 ids to a remote
// index in one chunked fetch round — ⌈300/128⌉ = 3 fetch-many requests —
// not one round trip per id.
func TestFetchTuplesOneRound(t *testing.T) {
	const bits = 12
	tuples := clusterTestTuples(300, bits, 35)
	client, err := NewClient(LogarithmicBRC, bits, WithSeed(6))
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
	defer remote.Close()
	counter := &fetchCounter{Source: remote}
	ids := make([]ID, len(tuples))
	for i, tup := range tuples {
		ids[i] = tup.ID
	}
	got, err := client.FetchTuples(context.Background(), counter, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tuples) {
		t.Fatal("FetchTuples returned other tuples than were built")
	}
	if n := counter.fetches.Load(); n != 3 {
		t.Fatalf("fetching %d ids sent %d fetch-many requests, want 3", len(ids), n)
	}
}
