package rsse_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"sort"

	"rsse"
)

// The basic flow: build an encrypted index, query a range, fetch a tuple.
func Example() {
	client, err := rsse.NewClient(rsse.LogarithmicSRCi, 16, rsse.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	index, err := client.BuildIndex([]rsse.Tuple{
		{ID: 1, Value: 34, Payload: []byte("alice")},
		{ID: 2, Value: 29, Payload: []byte("bob")},
		{ID: 3, Value: 57, Payload: []byte("carol")},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 30, Hi: 45})
	if err != nil {
		log.Fatal(err)
	}
	tuples, err := client.FetchTuples(context.Background(), index, res.Matches)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d match: %s\n", len(res.Matches), tuples[0].Payload)
	// Output: 1 match: alice
}

// Observing the leakage profile: Logarithmic-SRC issues exactly one
// token and returns one undivided result group.
func ExampleClient_QueryContext() {
	client, err := rsse.NewClient(rsse.LogarithmicSRC, 12, rsse.WithSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	tuples := make([]rsse.Tuple, 64)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: uint64(i * 64)}
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		log.Fatal(err)
	}
	res, err := client.QueryContext(context.Background(), index, rsse.Range{Lo: 256, Hi: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tokens=%d rounds=%d groups=%d\n",
		res.Stats.Tokens, res.Stats.Rounds, len(res.Stats.Groups))
	// Output: tokens=1 rounds=1 groups=1
}

// Batched updates with forward privacy: deletions ride as tombstones and
// disappear after consolidation.
func ExampleDynamic() {
	store, err := rsse.NewDynamic(rsse.LogarithmicURC, 12, 2, rsse.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	store.Insert(1, 100, nil)
	store.Insert(2, 200, nil)
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}
	store.Delete(1, 100)
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}
	tuples, _, err := store.QueryContext(context.Background(), rsse.Range{Lo: 0, Hi: 4095})
	if err != nil {
		log.Fatal(err)
	}
	var ids []uint64
	for _, t := range tuples {
		ids = append(ids, t.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Println(ids)
	// Output: [2]
}

// Durable dynamic indexes: a store opened on a directory survives a
// crash — acknowledged updates are in the write-ahead log, sealed
// epochs are on disk, and reopening recovers the exact state.
func Example_durableDynamic() {
	dir, err := os.MkdirTemp("", "rsse-durable-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := rsse.OpenDynamic(dir, rsse.LogarithmicBRC, 12, 2)
	if err != nil {
		log.Fatal(err)
	}
	store.Insert(1, 100, []byte("alice"))
	store.Insert(2, 200, []byte("bob"))
	if err := store.Flush(); err != nil { // sealed + committed durably
		log.Fatal(err)
	}
	store.Delete(2, 200) // acknowledged: in the WAL, not yet flushed
	// Close does NOT flush: pending updates live on in the WAL alone,
	// exactly as they would across a crash (crash recovery itself is
	// exercised by the kill-point and differential tests).
	store.Close()

	recovered, err := rsse.OpenDynamic(dir, rsse.LogarithmicBRC, 12, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("recovered pending ops: %d\n", recovered.Pending())
	if err := recovered.Flush(); err != nil {
		log.Fatal(err)
	}
	tuples, _, err := recovered.QueryContext(context.Background(), rsse.Range{Lo: 0, Hi: 4095})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live after recovery: %d (%s)\n", len(tuples), tuples[0].Payload)
	// Output:
	// recovered pending ops: 1
	// live after recovery: 1 (alice)
}

// Remote updates: a served durable store is mutated over the wire and
// acknowledges each update only once it is persisted.
func Example_remoteUpdates() {
	dir, err := os.MkdirTemp("", "rsse-remote-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Server side (rsse-server -writable does exactly this).
	store, err := rsse.OpenDynamic(dir, rsse.LogarithmicBRC, 12, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	reg := rsse.NewRegistry()
	if err := reg.RegisterWritable(rsse.DefaultDynamicName, store); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go func() { _ = rsse.NewServer(reg).Serve(l) }()

	// Owner side (rsse-owner put/flush/get does exactly this).
	remote, err := rsse.DialDynamic("tcp", l.Addr().String(), rsse.DefaultDynamicName)
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	if err := remote.Insert(7, 1500, []byte("carol")); err != nil {
		log.Fatal(err)
	}
	if err := remote.Flush(); err != nil {
		log.Fatal(err)
	}
	tuples, err := remote.QueryContext(context.Background(), rsse.Range{Lo: 1000, Hi: 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d match: %s\n", len(tuples), tuples[0].Payload)
	// Output: 1 match: carol
}

// Serving intersecting Constant-scheme queries from cache, as Section 5
// of the paper suggests.
func ExampleCachedClient() {
	client, err := rsse.NewClient(rsse.ConstantURC, 12, rsse.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	index, err := client.BuildIndex([]rsse.Tuple{
		{ID: 1, Value: 150}, {ID: 2, Value: 250}, {ID: 3, Value: 350},
	})
	if err != nil {
		log.Fatal(err)
	}
	cached, err := rsse.NewCachedClient(client, index)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cached.QueryContext(context.Background(), rsse.Range{Lo: 100, Hi: 400}); err != nil {
		log.Fatal(err)
	}
	// The sub-range intersects the history, so the raw client would
	// refuse it — the cache answers locally instead.
	res, err := cached.QueryContext(context.Background(), rsse.Range{Lo: 200, Hi: 300})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matches=%d rounds=%d\n", len(res.Matches), res.Stats.Rounds)
	// Output: matches=1 rounds=0
}
