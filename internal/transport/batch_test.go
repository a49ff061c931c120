package transport

import (
	"bytes"
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

// batchRecorder passes batches through to its handle and keeps every
// trapdoor they carried.
type batchRecorder struct {
	*IndexHandle
	ts []*core.Trapdoor
}

func (r *batchRecorder) SearchBatchContext(ctx context.Context, ts []*core.Trapdoor) ([]*core.Response, error) {
	r.ts = append(r.ts, ts...)
	return r.IndexHandle.SearchBatchContext(ctx, ts)
}

// ixCounts reads the per-index counters one search request moves.
func ixCounts(name string) [5]uint64 {
	return [5]uint64{ixBatches.With(name).Value(), ixQueries.With(name).Value(),
		ixTokens.With(name).Value(), ixTokenBytes.With(name).Value(), ixRespItems.With(name).Value()}
}

// countsSince is what a request moved the counters by.
func countsSince(name string, before [5]uint64) [5]uint64 {
	after := ixCounts(name)
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestBatchQueryOp: for every kind, the deduplicated trapdoor of a
// 64-range QueryBatch gets byte-identical responses over the batch op
// and the search op. The batch op moves rsse_index_batches_total by
// one, and the query, token, token-byte and response-item counters
// exactly as the search op does. (searchBatchOneFrame checks batches
// of many trapdoors against one search per trapdoor.)
func TestBatchQueryOp(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			client := newTestClient(t, kind)
			idx, err := client.BuildIndex(testDataset(kind))
			if err != nil {
				t.Fatal(err)
			}
			name := "op5-" + kind.String()
			reg := NewRegistry()
			if err := reg.Register(name, idx); err != nil {
				t.Fatal(err)
			}
			rec := &batchRecorder{IndexHandle: pipeRegistry(t, reg).Index(name)}
			m := uint64(1024)
			if kind == core.Quadratic {
				m = 64
			}
			ranges := make([]core.Range, 64)
			for i := range ranges {
				lo := uint64(i*7) % (m / 2)
				ranges[i] = core.Range{Lo: lo, Hi: lo + uint64(i)%(m/4)}
			}
			if _, err := client.QueryBatch(rec, ranges); err != nil {
				t.Fatal(err)
			}
			if len(rec.ts) == 0 {
				t.Fatal("the batch sent no trapdoor")
			}
			for i, tr := range rec.ts {
				before := ixCounts(name)
				batched, err := rec.SearchBatchContext(context.Background(), []*core.Trapdoor{tr})
				if err != nil {
					t.Fatal(err)
				}
				viaBatch := countsSince(name, before)
				before = ixCounts(name)
				single, err := rec.Search(tr)
				if err != nil {
					t.Fatal(err)
				}
				viaSearch := countsSince(name, before)
				b, _ := batched[0].MarshalBinary()
				s, _ := single.MarshalBinary()
				if !bytes.Equal(b, s) {
					t.Fatalf("trapdoor %d (%d tokens): batch op and search op answered differently", i, tr.Tokens())
				}
				if viaBatch[0] != 1 || viaSearch[0] != 0 {
					t.Errorf("trapdoor %d: batches_total moved %d by the batch op, %d by the search op; want 1, 0", i, viaBatch[0], viaSearch[0])
				}
				viaBatch[0], viaSearch[0] = 0, 0
				if viaBatch != viaSearch || viaSearch[1] != 1 {
					t.Errorf("trapdoor %d: queries/tokens/token bytes/items moved %v by the batch op, %v by the search op", i, viaBatch[1:], viaSearch[1:])
				}
			}
		})
	}
}

// searchBatchOneFrame runs ts as one batch through h and checks that
// it cost exactly one batch-query request and no search request, and
// that the responses are exactly those of one search per trapdoor, in
// trapdoor order.
func searchBatchOneFrame(t *testing.T, h *IndexHandle, ts []*core.Trapdoor) {
	t.Helper()
	batches, searches := tm.requests[opBatchQuery].Value(), tm.requests[opSearch].Value()
	rs, err := h.SearchBatchContext(context.Background(), ts)
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
// where a batch used to switch to the streamed op — is still one
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
	_, err := conn.Index("no-such-index").SearchBatchContext(context.Background(), ts)
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
