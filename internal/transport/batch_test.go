package transport

import (
	"context"
	"errors"
	mrand "math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
)

// batchTestIndex builds a small Logarithmic-BRC client+index pair.
func batchTestIndex(t *testing.T, seed int64) (*core.Client, *core.Index) {
	t.Helper()
	dom := cover.Domain{Bits: 10}
	client, err := core.NewClient(core.LogarithmicBRC, dom, core.Options{
		Rand: mrand.New(mrand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(seed + 1))
	tuples := make([]core.Tuple, 200)
	for i := range tuples {
		tuples[i] = core.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % 1024}
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return client, index
}

// batchTrapdoors builds n trapdoors over overlapping ranges of
// batchTestIndex's domain.
func batchTrapdoors(t *testing.T, client *core.Client, n int) []*core.Trapdoor {
	t.Helper()
	ts := make([]*core.Trapdoor, 0, n)
	for i := 0; i < n; i++ {
		lo := uint64(i * 7 % 900)
		tr, err := client.Trapdoor(core.Range{Lo: lo, Hi: lo + uint64(i%40)})
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tr)
	}
	return ts
}

// TestBatchQueryOp: the batch frame returns exactly the responses the
// per-trapdoor search op would, in trapdoor order.
func TestBatchQueryOp(t *testing.T) {
	client, index := batchTestIndex(t, 131)
	cliConn, srvConn := net.Pipe()
	go func() { _ = ServeConn(srvConn, index) }()
	conn := NewConn(cliConn)
	defer conn.Close()
	h := conn.Default()

	var ts []*core.Trapdoor
	for _, q := range []core.Range{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 512}, {Lo: 7, Hi: 7}} {
		tr, err := client.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tr)
	}
	batched, err := h.SearchBatch(ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(ts) {
		t.Fatalf("%d responses for %d trapdoors", len(batched), len(ts))
	}
	for i, tr := range ts {
		single, err := h.Search(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(single.Groups) != len(batched[i].Groups) {
			t.Fatalf("trapdoor %d: %d groups batched, %d single", i, len(batched[i].Groups), len(single.Groups))
		}
		if batched[i].Items() != single.Items() {
			t.Fatalf("trapdoor %d: %d items batched, %d single", i, batched[i].Items(), single.Items())
		}
	}
}

// searchBatchOneFrame runs ts as one batch through h and checks that
// it cost exactly one batch-query request and no search request, and
// that the responses are exactly those of one search per trapdoor, in
// trapdoor order.
func searchBatchOneFrame(t *testing.T, h *IndexHandle, ts []*core.Trapdoor) {
	t.Helper()
	batches, searches := tm.requests[opBatchQuery].Value(), tm.requests[opSearch].Value()
	rs, err := h.SearchBatch(ts)
	if err != nil {
		t.Fatalf("%d-trapdoor batch: %v", len(ts), err)
	}
	if got := tm.requests[opBatchQuery].Value() - batches; got != 1 {
		t.Fatalf("a %d-trapdoor batch cost %d batch requests, want 1", len(ts), got)
	}
	if got := tm.requests[opSearch].Value() - searches; got != 0 {
		t.Fatalf("a %d-trapdoor batch cost %d search requests", len(ts), got)
	}
	if len(rs) != len(ts) {
		t.Fatalf("%d responses for %d trapdoors", len(rs), len(ts))
	}
	for i, tr := range ts {
		single, err := h.Search(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs[i].Groups, single.Groups) {
			t.Fatalf("%d-trapdoor batch, trapdoor %d: batched response differs from the single search", len(ts), i)
		}
	}
}

// TestBatchStreamOp: batches of every size — empty, one, and the sizes
// that once straddled the retired streamed op's chunk edges — stay one
// batch-query frame each way over a pooled server, and answer exactly
// as one search per trapdoor.
func TestBatchStreamOp(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		client, index := batchTestIndex(t, 241)
		cliConn, srvConn := net.Pipe()
		go func() { _ = serveLoop(singleRegistry(index), srvConn, nil, nil, 0) }()
		conn := NewConn(cliConn)
		defer conn.Close()
		h := conn.Default()
		for _, n := range []int{0, 1, 16, 17, 47} {
			searchBatchOneFrame(t, h, batchTrapdoors(t, client, n))
		}
	})
}

// TestBatchStreamAutoSwitch: a 40-trapdoor batch — past the threshold
// where SearchBatch used to switch to the streamed op — is still one
// batch-query request answered by one frame.
func TestBatchStreamAutoSwitch(t *testing.T) {
	client, index := batchTestIndex(t, 251)
	conn := pipeServer(t, index)
	searchBatchOneFrame(t, conn.Default(), batchTrapdoors(t, client, 40))
}

// TestBatchStreamError: a large batch against an unknown index fails
// as a server error, not an overload, and the connection keeps serving
// batches afterwards.
func TestBatchStreamError(t *testing.T) {
	client, index := batchTestIndex(t, 257)
	conn := pipeServer(t, index)
	ts := batchTrapdoors(t, client, 40)
	_, err := conn.Index("no-such-index").SearchBatch(ts)
	if err == nil || !strings.Contains(err.Error(), "no-such-index") {
		t.Fatalf("batch against an unknown index returned %v", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("lookup failure misreported as overload: %v", err)
	}
	searchBatchOneFrame(t, conn.Default(), ts)
}

// blockingServer serves valid metadata but parks every search until
// released — a stand-in for a stuck or overloaded remote.
type blockingServer struct {
	meta    core.IndexMeta
	started chan struct{} // closed signal: a search is in flight
	release chan struct{}
}

func (s *blockingServer) Meta() (core.IndexMeta, error) { return s.meta, nil }

func (s *blockingServer) Search(t *core.Trapdoor) (*core.Response, error) {
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-s.release
	return &core.Response{Groups: make([][][]byte, t.Tokens())}, nil
}

func (s *blockingServer) Fetch(id core.ID) ([]byte, bool, error) { return nil, false, nil }

// TestBatchQueryCancellation: a context cancelled mid-batch — while the
// server is still searching — returns promptly with context.Canceled,
// and the connection survives for later requests.
func TestBatchQueryCancellation(t *testing.T) {
	client, index := batchTestIndex(t, 137)
	blocking := &blockingServer{
		meta:    core.IndexMeta{Kind: core.LogarithmicBRC, DomainBits: 10, N: 200},
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	reg := NewRegistry()
	if err := reg.Register("slow", blocking); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("fast", index); err != nil {
		t.Fatal(err)
	}
	cliConn, srvConn := net.Pipe()
	go func() { _ = ServeConnRegistry(srvConn, reg) }()
	conn := NewConn(cliConn)
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-blocking.started // the batch reached the server
		cancel()
	}()
	ranges := []core.Range{{Lo: 0, Hi: 100}, {Lo: 200, Hi: 300}, {Lo: 400, Hi: 500}}
	start := time.Now()
	_, err := client.QueryBatchContext(ctx, conn.Index("slow"), ranges)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancelled batch took %v to return", waited)
	}
	// The abandoned request must not poison the connection: release the
	// server and run a normal batch against the healthy index.
	close(blocking.release)
	br, err := client.QueryBatchContext(context.Background(), conn.Index("fast"), ranges)
	if err != nil {
		t.Fatalf("batch after cancellation: %v", err)
	}
	if len(br.Results) != len(ranges) {
		t.Fatalf("%d results for %d ranges", len(br.Results), len(ranges))
	}
}
