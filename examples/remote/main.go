// Remote: the owner and the untrusted server as separate parties over
// TCP. The server process holds only the encrypted index — no keys — and
// the full (interactive, for SRC-i) query protocol runs across the wire.
//
// This example runs both parties in one process for convenience; the
// cmd/rsse-server and cmd/rsse-owner binaries split them for real.
//
// Run with: go run ./examples/remote
package main

import (
	"context"
	"fmt"
	"log"
	mrand "math/rand"
	"net"

	"rsse"
)

func main() {
	// ----- Owner side: build the encrypted index.
	client, err := rsse.NewClient(rsse.LogarithmicSRCi, 16)
	if err != nil {
		log.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(99))
	tuples := make([]rsse.Tuple, 5000)
	for i := range tuples {
		tuples[i] = rsse.Tuple{
			ID:      uint64(i + 1),
			Value:   rnd.Uint64() % 65536,
			Payload: fmt.Appendf(nil, "record-%05d", i),
		}
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		log.Fatal(err)
	}

	// ----- Server side: serve the index on a loopback port. In a real
	// deployment this runs in another process (see cmd/rsse-server); the
	// index can cross the boundary via index.MarshalBinary().
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := rsse.Serve(l, index); err != nil {
			log.Fatal(err)
		}
	}()
	fmt.Printf("server: %d tuples (%.1f MB index) on %s — holds no keys\n",
		index.N(), float64(index.Size())/(1<<20), l.Addr())

	// ----- Owner side again: dial and query over the network. The
	// remote index is a Source, like the local one: the same QueryContext
	// and FetchTuples calls run each round across the connection.
	ctx := context.Background()
	remote, err := rsse.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()

	for _, q := range []rsse.Range{{Lo: 1000, Hi: 2000}, {Lo: 60000, Hi: 65535}} {
		res, err := client.QueryContext(ctx, remote, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %v over TCP: %d matches, %d rounds, %d token bytes, %d FPs dropped\n",
			q, len(res.Matches), res.Stats.Rounds, res.Stats.TokenBytes, res.Stats.FalsePositives)
		if len(res.Matches) > 0 {
			tuples, err := client.FetchTuples(ctx, remote, res.Matches[:1])
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  fetched id %d: value=%d payload=%s\n", tuples[0].ID, tuples[0].Value, tuples[0].Payload)
		}
	}
}
