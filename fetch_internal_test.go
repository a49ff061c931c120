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

// perIDOnly hides a shard target's FetchMany, forcing the owner's fetch
// round onto the one-Fetch-per-id fallback — the reference the chunked
// round is compared to. (internal/core and internal/transport run the
// same differential for a local index and for plain and resilient
// remote handles.)
type perIDOnly struct{ core.Server }

func hideFetchMany(t *testing.T, s core.Server) core.Server {
	t.Helper()
	if _, many := s.(core.ManyFetcher); !many {
		t.Fatalf("shard target %T has no FetchMany to hide", s)
	}
	return perIDOnly{s}
}

func clusterTestTuples(n int, bits uint8, seed int64) []Tuple {
	rnd := mrand.New(mrand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % (1 << bits), Payload: []byte{byte(i)}}
	}
	return out
}

// serveShards serves every shard of a built cluster on one loopback
// server and returns the manifest pointing at it.
func serveShards(t *testing.T, built *Cluster, base string) ClusterManifest {
	t.Helper()
	man := built.Manifest(base)
	reg := NewRegistry()
	for i := range man.Shards {
		if err := reg.Register(man.Shards[i].Name, built.ShardIndex(i)); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		l.Close()
	})
	for i := range man.Shards {
		man.Shards[i].Addr = l.Addr().String()
	}
	return man
}

// TestFetchRoundDifferentialCluster: for both SRC schemes, a local and a
// dialed cluster must answer Query and QueryBatch through the chunked
// fetch round exactly as they do once their shard targets only offer
// per-id fetches. (One cluster answers both ways: the servers return a
// keyword's ids in a fixed order, so its answers repeat exactly.)
func TestFetchRoundDifferentialCluster(t *testing.T) {
	const bits = 12
	tuples := clusterTestTuples(1500, bits, 21)
	queries := []Range{{Lo: 0, Hi: 1<<bits - 1}, {Lo: 900, Hi: 2300}, {Lo: 2047, Hi: 2048}, {Lo: 5, Hi: 5}, {Lo: 3000, Hi: 4095}}
	type answers struct {
		single []*ClusterResult
		batch  *ClusterBatchResult
	}
	ask := func(t *testing.T, c *Cluster) (a answers) {
		t.Helper()
		for _, q := range queries {
			res, err := c.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			a.single = append(a.single, res)
		}
		var err error
		if a.batch, err = c.QueryBatch(queries); err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, kind := range []Kind{LogarithmicSRC, LogarithmicSRCi} {
		t.Run(kind.String(), func(t *testing.T) {
			built, err := BuildCluster(kind, bits, 3, tuples, WithShardOptions(WithSeed(9)))
			if err != nil {
				t.Fatal(err)
			}
			dialed, err := DialCluster("tcp", "", serveShards(t, built, "diff"), built.MasterKey(),
				WithShardOptions(WithSeed(10)))
			if err != nil {
				t.Fatal(err)
			}
			defer dialed.Close()
			for name, c := range map[string]*Cluster{"local": built, "dialed": dialed} {
				got := ask(t, c)
				for i := range c.targets {
					c.targets[i] = hideFetchMany(t, c.targets[i])
				}
				want := ask(t, c)
				pipelined := false
				for i, q := range queries {
					g, w := got.single[i], want.single[i]
					if !reflect.DeepEqual(g.Raw, w.Raw) || !reflect.DeepEqual(g.Matches, w.Matches) {
						t.Fatalf("%s %v: chunked fetch round diverged from per-id fallback", name, q)
					}
					gb, wb := got.batch.Results[i], want.batch.Results[i]
					if !reflect.DeepEqual(gb.Raw, wb.Raw) || !reflect.DeepEqual(gb.Matches, wb.Matches) {
						t.Fatalf("%s batch range %v diverged from per-id fallback", name, q)
					}
					for _, sh := range g.Shards {
						pipelined = pipelined || sh.Stats.Raw > core.FetchChunk
					}
				}
				if !pipelined {
					t.Fatalf("%s: no shard sub-query exceeded one fetch chunk", name)
				}
			}
		})
	}
}

// fetchCounter counts the Fetch calls reaching one shard target.
type fetchCounter struct {
	core.Server
	fetches atomic.Int64
}

func (s *fetchCounter) Fetch(id core.ID) ([]byte, bool, error) {
	s.fetches.Add(1)
	return s.Server.Fetch(id)
}

// TestClusterFetchTupleFetchesOnce: Cluster.FetchTuple probes shards in
// order and decrypts the ciphertext the owning shard's probe returned —
// exactly one Fetch reaches that shard (it used to be two: the probe,
// then a second fetch to decrypt).
func TestClusterFetchTupleFetchesOnce(t *testing.T) {
	const bits = 12
	tuples := clusterTestTuples(300, bits, 33)
	c, err := BuildCluster(LogarithmicSRCi, bits, 3, tuples, WithShardOptions(WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]*fetchCounter, len(c.targets))
	for i := range c.targets {
		counters[i] = &fetchCounter{Server: c.targets[i]}
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
