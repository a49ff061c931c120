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

// fetchCounter counts the FetchMany calls reaching one shard target.
type fetchCounter struct {
	core.Source
	fetches atomic.Int64
}

func (s *fetchCounter) FetchMany(ctx context.Context, ids []core.ID) ([][]byte, error) {
	s.fetches.Add(1)
	return s.Source.FetchMany(ctx, ids)
}

// TestClusterFetchTupleFetchesOnce: Cluster.FetchTuple probes shards in
// order and decrypts the ciphertext the owning shard's probe returned —
// exactly one FetchMany reaches that shard (it used to be two: the
// probe, then a second fetch to decrypt).
func TestClusterFetchTupleFetchesOnce(t *testing.T) {
	const bits = 12
	tuples := clusterTestTuples(300, bits, 33)
	c, err := BuildCluster(LogarithmicSRCi, bits, 3, tuples, WithShardOptions(WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]*fetchCounter, len(c.targets))
	for i := range c.targets {
		counters[i] = &fetchCounter{Source: c.targets[i]}
		c.targets[i] = counters[i]
	}
	for _, want := range []Tuple{tuples[0], tuples[150], tuples[299]} {
		for _, fc := range counters {
			fc.fetches.Store(0)
		}
		got, err := c.FetchTuple(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FetchTuple(%d) = %+v, want %+v", want.ID, got, want)
		}
		owner := c.ShardOf(want.Value)
		for i, fc := range counters {
			n := fc.fetches.Load()
			switch {
			case i < owner && n != 1:
				t.Errorf("id %d: shard %d before the owner was probed %d times, want 1", want.ID, i, n)
			case i == owner && n != 1:
				t.Errorf("id %d: owning shard %d received %d fetches, want exactly 1", want.ID, i, n)
			case i > owner && n != 0:
				t.Errorf("id %d: shard %d after the owner received %d fetches, want 0", want.ID, i, n)
			}
		}
	}
	if _, err := c.FetchTuple(1 << 40); err == nil {
		t.Fatal("FetchTuple accepted an unknown id")
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
