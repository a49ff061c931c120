package transport

import (
	"bytes"
	"context"
	mrand "math/rand"
	"net"
	"sync"
	"testing"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/sse"
)

// newTestClient builds a deterministic client; two calls with the same
// kind produce byte-identical clients (same master key, same rnd seed),
// so their trapdoors match exactly. Quadratic gets a small domain — its
// index replicates every tuple under O(m^2) ranges.
func newTestClient(t *testing.T, kind core.Kind) *core.Client {
	t.Helper()
	bits := uint8(10)
	if kind == core.Quadratic {
		bits = 6
	}
	c, err := core.NewClient(kind, cover.Domain{Bits: bits}, core.Options{
		SSE:               sse.Basic{},
		Rand:              mrand.New(mrand.NewSource(8)),
		MasterKey:         bytes.Repeat([]byte{9}, 32),
		AllowIntersecting: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testDataset builds the deterministic tuple set for newTestClient's
// domain size.
func testDataset(kind core.Kind) []core.Tuple {
	mod := uint64(1024)
	if kind == core.Quadratic {
		mod = 64
	}
	rnd := mrand.New(mrand.NewSource(7))
	tuples := make([]core.Tuple, 200)
	for i := range tuples {
		tuples[i] = core.Tuple{
			ID:      uint64(i + 1),
			Value:   rnd.Uint64() % mod,
			Payload: []byte{byte(i), byte(i >> 8)},
		}
	}
	return tuples
}

func allKinds() []core.Kind {
	return []core.Kind{
		core.Quadratic,
		core.ConstantBRC, core.ConstantURC,
		core.LogarithmicBRC, core.LogarithmicURC,
		core.LogarithmicSRC, core.LogarithmicSRCi,
	}
}

// TestPooledTransportDifferential runs every scheme's query protocol
// twice — through the pooled frame/body transport over a pipe, and
// in-process against the same index (the unpooled oracle: no frame
// writers, no body recycling, no arena decrypt on the wire) — from two
// identically-seeded clients, so the trapdoors are byte-identical and
// the results must be too, raw (pre-filter) lists included.
func TestPooledTransportDifferential(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			queries := []core.Range{
				{Lo: 0, Hi: 1023}, {Lo: 100, Hi: 600}, {Lo: 777, Hi: 777},
				{Lo: 0, Hi: 0}, {Lo: 512, Hi: 540},
			}
			if kind == core.Quadratic {
				queries = []core.Range{{Lo: 0, Hi: 63}, {Lo: 10, Hi: 40}, {Lo: 7, Hi: 7}, {Lo: 0, Hi: 0}}
			}
			builder := newTestClient(t, kind)
			idx, err := builder.BuildIndex(testDataset(kind))
			if err != nil {
				t.Fatal(err)
			}
			remoteClient := newTestClient(t, kind)
			localClient := newTestClient(t, kind)
			remote := pipeServer(t, idx).Default()
			for _, q := range queries {
				got, err := remoteClient.QueryContext(context.Background(), remote, q)
				if err != nil {
					t.Fatalf("remote query %v: %v", q, err)
				}
				want, err := localClient.QueryContext(context.Background(), idx, q)
				if err != nil {
					t.Fatalf("local query %v: %v", q, err)
				}
				if len(got.Raw) != len(want.Raw) || len(got.Matches) != len(want.Matches) {
					t.Fatalf("query %v: remote %d raw/%d matches, local %d raw/%d matches",
						q, len(got.Raw), len(got.Matches), len(want.Raw), len(want.Matches))
				}
				for i := range want.Raw {
					if got.Raw[i] != want.Raw[i] {
						t.Fatalf("query %v: raw[%d] = %d over the wire, %d locally", q, i, got.Raw[i], want.Raw[i])
					}
				}
				for i := range want.Matches {
					if got.Matches[i] != want.Matches[i] {
						t.Fatalf("query %v: match[%d] = %d over the wire, %d locally", q, i, got.Matches[i], want.Matches[i])
					}
				}
			}
		})
	}
}

// TestConcurrentClientsSharedConn hammers one Conn from many goroutines
// mixing single searches, batch searches and fetches. Under -race this
// exercises the pooled frame writers (client and server side), the
// pooled request bodies, and the searcher pools behind the served
// index; every response must still route to its own caller intact.
func TestConcurrentClientsSharedConn(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicBRC)
	remote := pipeServer(t, idx).Default()

	// Precompute trapdoors and their expected wire responses from a
	// sequential oracle; trapdoors are read-only data, safe to share.
	queries := []core.Range{{Lo: 0, Hi: 1023}, {Lo: 100, Hi: 600}, {Lo: 777, Hi: 777}, {Lo: 3, Hi: 900}}
	var (
		traps []*core.Trapdoor
		wants [][]byte
	)
	for _, q := range queries {
		if _, err := c.QueryContext(context.Background(), remote, q); err != nil {
			t.Fatal(err)
		}
		tr, err := c.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := idx.SearchContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := resp.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		traps = append(traps, tr)
		wants = append(wants, b)
	}

	const goroutines = 16
	const iters = 25
	runConcurrent(t, goroutines, iters, remote, traps, wants, tuples)
}

func runConcurrent(t *testing.T, goroutines, iters int, remote *IndexHandle, traps []*core.Trapdoor, wants [][]byte, tuples []core.Tuple) {
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (g + it) % len(traps)
				resp, err := remote.SearchContext(context.Background(), traps[k])
				if err != nil {
					errs <- err
					return
				}
				b, err := resp.MarshalBinary()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, wants[k]) {
					t.Errorf("goroutine %d iter %d: response for trapdoor %d diverges from oracle", g, it, k)
					return
				}
				// Interleave fetches so small and large frames mix on the
				// shared connection.
				tu := tuples[(g*iters+it)%len(tuples)]
				cts, err := remote.FetchMany(context.Background(), []core.ID{tu.ID})
				if err != nil || len(cts[0]) == 0 {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRemoteSearchRoundTrip measures one full search round trip
// over an in-memory pipe: request framing, server dispatch, index
// search, response framing, demultiplexing. The transport's own
// steady-state contribution is the delta against BenchmarkQueryPath's
// in-process numbers.
func BenchmarkRemoteSearchRoundTrip(b *testing.B) {
	rnd := mrand.New(mrand.NewSource(7))
	tuples := make([]core.Tuple, 200)
	for i := range tuples {
		tuples[i] = core.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % 1024, Payload: []byte{byte(i)}}
	}
	c, err := core.NewClient(core.LogarithmicBRC, cover.Domain{Bits: 10}, core.Options{
		SSE:       sse.Basic{},
		Rand:      mrand.New(mrand.NewSource(8)),
		MasterKey: bytes.Repeat([]byte{9}, 32),
	})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		b.Fatal(err)
	}
	serverEnd, clientEnd := net.Pipe()
	go func() { _ = ServeConn(serverEnd, idx) }()
	defer serverEnd.Close()
	conn := NewConn(clientEnd)
	defer conn.Close()
	remote := conn.Default()
	tr, err := c.Trapdoor(core.Range{Lo: 100, Hi: 600})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.SearchContext(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
	}
}
