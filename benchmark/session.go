package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"rsse"
	"rsse/internal/transport"
)

// An op is one request of a closed-loop client: a range query, one
// 16-range batch, or one write against the dynamic store. A flush is
// issued by the writer on its stated schedule; it is timed but is not an
// op of the throughput figure.
type opKind byte

const (
	opRead opKind = iota
	opInsert
	opDelete
	opFlush
)

type op struct {
	kind   opKind
	ranges []rsse.Range // opRead: one range, or sixteen for a batch
	id     uint64       // writes
	value  uint64       // writes: the value put, or the victim's value
}

// counts are the per-op figures the program itself reports back
// (QueryStats, BatchStats, UpdateStats); summed over a fixed number of
// ops of a seeded stream they repeat exactly.
type counts struct {
	Rounds, Tokens, TokenBytes, ResponseItems int64
	Raw, FalsePositives, Fetches, Leaves      int64
	CoverNodes, UniqueTokens, Subqueries      int64
	OwnerNs, ServerNs                         int64
}

func (c *counts) add(o counts) {
	c.Rounds += o.Rounds
	c.Tokens += o.Tokens
	c.TokenBytes += o.TokenBytes
	c.ResponseItems += o.ResponseItems
	c.Raw += o.Raw
	c.FalsePositives += o.FalsePositives
	c.Fetches += o.Fetches
	c.Leaves += o.Leaves
	c.CoverNodes += o.CoverNodes
	c.UniqueTokens += o.UniqueTokens
	c.Subqueries += o.Subqueries
	c.OwnerNs += o.OwnerNs
	c.ServerNs += o.ServerNs
}

// session is one closed-loop client: its own connection, its own owner
// state and its own seeded op stream, one request in flight.
type session interface {
	// next draws the client's next op; the stream depends on the seed and
	// the client index only, never on answers or timing.
	next() *op
	// do runs the op against the served system and returns the matching
	// ids per range (nil for writes).
	do(o *op) ([][]uint64, counts, error)
	// memo reports the owner's cumulative trapdoor-memo hits and misses.
	memo() (hits, misses uint64)
	close() error
}

// deployment is one finished set-up of a workload: data built or loaded,
// index served on a loopback listener, ready for clients to dial.
type deployment struct {
	oracle        oracle
	tuples        int
	buildNs       int64 // BuildIndex / BuildCluster / preload time
	openNs        int64 // OpenIndexFile time, where the workload opens a file
	indexBytes    int64
	residentBytes int64
	wire          *wireCounter
	dyn           *dynamicStore // mixed_dynamic only

	open       func(client int) (session, error)
	openTraced func(tr *tracer) (session, error)
	// finish runs after the measured interval with every client stopped
	// and returns how many of its own checks it attempted and failed
	// (mixed_dynamic's copy-and-reopen durability check).
	finish   func() (attempted, failed int, err error)
	shutdown func() error
}

// wireCounter counts bytes on the owner's sockets, both directions.
type wireCounter struct{ sent, received atomic.Int64 }

func (w *wireCounter) total() int64 { return w.sent.Load() + w.received.Load() }

func (w *wireCounter) wrap(c net.Conn) net.Conn { return &countingConn{Conn: c, w: w} }

type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.received.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.sent.Add(int64(n))
	return n, err
}

// served is an rsse.Server on a 127.0.0.1:0 listener.
type served struct {
	addr string
	l    net.Listener
	srv  *rsse.Server
	done chan error
}

func serve(reg *rsse.Registry) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{addr: l.Addr().String(), l: l, srv: rsse.NewServer(reg), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

// stop drains the server and waits for its accept loop to return. A
// set-up that is discarded without a single request can reach Shutdown
// before the accept loop has first run; Serve then refuses to start,
// which is as stopped as it gets, and the listener is closed here.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	s.l.Close()
	if err := <-s.done; err != nil && !errors.Is(err, transport.ErrServerClosed) {
		return err
	}
	return nil
}

// seededKey derives the workload's 32-byte master key from the seed, so
// that the same seed builds the same index.
func seededKey(seed int64) []byte {
	key := make([]byte, 32)
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(key)
	return key
}

// clientRand is client i's private op-stream source.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))
}
