package transport

import (
	"context"
	"errors"
	mrand "math/rand"
	"net"
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

// batchRanges returns n overlapping ranges of batchTestIndex's domain.
func batchRanges(n int) []core.Range {
	rs := make([]core.Range, n)
	for i := range rs {
		lo := uint64(i * 7 % 900)
		rs[i] = core.Range{Lo: lo, Hi: lo + uint64(i%40)}
	}
	return rs
}

// requestCounts snapshots rsse_requests_total, by op slot.
func requestCounts() (n [len(opLabel)]uint64) {
	for op, c := range tm.requests {
		if c != nil {
			n[op] = c.Value()
		}
	}
	return n
}

// requestsSince is what crossed the wire since before, by op slot.
func requestsSince(before [len(opLabel)]uint64) [len(opLabel)]uint64 {
	after := requestCounts()
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// searchRecorder passes searches through to its handle and keeps every
// trapdoor and response that crossed.
type searchRecorder struct {
	*IndexHandle
	ts    []*core.Trapdoor
	resps []*core.Response
}

func (r *searchRecorder) SearchContext(ctx context.Context, t *core.Trapdoor) (*core.Response, error) {
	resp, err := r.IndexHandle.SearchContext(ctx, t)
	r.ts, r.resps = append(r.ts, t), append(r.resps, resp)
	return resp, err
}

// ixCounts reads the per-index counters a search request moves:
// queries, tokens, token bytes and response items.
func ixCounts(name string) [4]uint64 {
	return [4]uint64{ixQueries.With(name).Value(), ixTokens.With(name).Value(),
		ixTokenBytes.With(name).Value(), ixRespItems.With(name).Value()}
}

// TestBatchQueryOp: for every kind, a remote 64-range QueryBatch costs
// exactly one search frame per round — two for SRC-i, one otherwise —
// and no frame of any other op. Each round's deduplicated trapdoor is
// answered byte-identically to a local Index.Search of it, and the
// per-index query, token, token-byte and response-item counters move by
// the batch's rounds, unique tokens, token bytes and response items.
func TestBatchQueryOp(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			client := newTestClient(t, kind)
			idx, err := client.BuildIndex(testDataset(kind))
			if err != nil {
				t.Fatal(err)
			}
			name := "batch-" + kind.String()
			reg := NewRegistry()
			if err := reg.Register(name, idx); err != nil {
				t.Fatal(err)
			}
			rec := &searchRecorder{IndexHandle: pipeRegistry(t, reg).Index(name)}
			if _, err := rec.MetaContext(context.Background()); err != nil { // keep the meta frame out of the count
				t.Fatal(err)
			}
			m := uint64(1024)
			if kind == core.Quadratic {
				m = 64
			}
			ranges := make([]core.Range, 64)
			for i := range ranges {
				lo := uint64(i*7) % (m / 2)
				ranges[i] = core.Range{Lo: lo, Hi: lo + uint64(i)%(m/4)}
			}
			before, ix0 := requestCounts(), ixCounts(name)
			br, err := client.QueryBatchContext(context.Background(), rec, ranges)
			if err != nil {
				t.Fatal(err)
			}
			rounds := 1
			if kind == core.LogarithmicSRCi {
				rounds = 2
			}
			if br.Stats.Rounds != rounds || len(rec.ts) != rounds {
				t.Fatalf("%d rounds, %d searches; want %d of each", br.Stats.Rounds, len(rec.ts), rounds)
			}
			var want [len(opLabel)]uint64
			want[opSearch] = uint64(rounds)
			if kind.HasFalsePositives() {
				want[opFetchMany] = uint64((br.Stats.FetchedTuples + core.FetchChunk - 1) / core.FetchChunk)
			}
			if got := requestsSince(before); got != want {
				t.Errorf("frames by op %v, want %v", got, want)
			}
			ix := ixCounts(name)
			for i := range ix {
				ix[i] -= ix0[i]
			}
			if wantIx := [4]uint64{uint64(rounds), uint64(br.Stats.UniqueTokens),
				uint64(br.Stats.TokenBytes), uint64(br.Stats.ResponseItems)}; ix != wantIx {
				t.Errorf("queries/tokens/token bytes/items moved %v, want %v", ix, wantIx)
			}
			for i, tr := range rec.ts {
				local, err := idx.SearchContext(context.Background(), tr)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := rec.resps[i].MarshalBinary()
				want, _ := local.MarshalBinary()
				if string(got) != string(want) {
					t.Fatalf("round %d (%d tokens): the search frame answered differently from Index.Search", i+1, tr.Tokens())
				}
			}
		})
	}
}

// batchOneFramePerRound runs ranges as one QueryBatch through h and
// checks that it cost exactly one search request and nothing else (none
// at all for an empty batch), with results identical to the same batch
// against the local index.
func batchOneFramePerRound(t *testing.T, client *core.Client, h *IndexHandle, index *core.Index, ranges []core.Range) {
	t.Helper()
	if _, err := h.MetaContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := requestCounts()
	br, err := client.QueryBatchContext(context.Background(), h, ranges)
	if err != nil {
		t.Fatalf("%d-range batch: %v", len(ranges), err)
	}
	var want [len(opLabel)]uint64
	if len(ranges) > 0 {
		want[opSearch] = 1
	}
	if got := requestsSince(before); got != want {
		t.Fatalf("a %d-range batch cost frames %v by op, want %v", len(ranges), got, want)
	}
	local, err := client.QueryBatchContext(context.Background(), index, ranges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ranges {
		if !sameResult(br.Results[i], local.Results[i]) {
			t.Fatalf("%d-range batch, range %d: remote result differs from the local batch", len(ranges), i)
		}
	}
}

// TestBatchStreamOp: batches of every size — empty, one, and the sizes
// that once straddled the retired streamed op's chunk edges — cost one
// search frame over a pooled server, and answer exactly as the same
// batch against the local index.
func TestBatchStreamOp(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		client, index := batchTestIndex(t, 241)
		cliConn, srvConn := net.Pipe()
		go func() { _ = serveLoop(singleRegistry(index), srvConn, nil, nil, 0) }()
		conn := NewConn(cliConn)
		defer conn.Close()
		h := conn.Default()
		for _, n := range []int{0, 1, 16, 17, 47} {
			batchOneFramePerRound(t, client, h, index, batchRanges(n))
		}
	})
}

// TestBatchStreamAutoSwitch: a 40-range batch — past the size where a
// batch used to switch to the streamed op — is still one search request
// answered by one frame.
func TestBatchStreamAutoSwitch(t *testing.T) {
	client, index := batchTestIndex(t, 251)
	conn := pipeServer(t, index)
	batchOneFramePerRound(t, client, conn.Default(), index, batchRanges(40))
}

// TestBatchStreamError: a batch round against an index deregistered
// after its meta exchange fails as a server error naming the index, not
// an overload, and the connection keeps serving batches afterwards.
func TestBatchStreamError(t *testing.T) {
	client, index := batchTestIndex(t, 257)
	reg := singleRegistry(index)
	if err := reg.Register("gone", index); err != nil {
		t.Fatal(err)
	}
	conn := pipeRegistry(t, reg)
	gone := conn.Index("gone")
	if _, err := gone.MetaContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg.Deregister("gone")
	ranges := batchRanges(40)
	_, err := client.QueryBatchContext(context.Background(), gone, ranges)
	if err == nil || !strings.Contains(err.Error(), `"gone"`) {
		t.Fatalf("batch against a deregistered index returned %v", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("lookup failure misreported as overload: %v", err)
	}
	batchOneFramePerRound(t, client, conn.Default(), index, ranges)
}

// blockingServer serves valid metadata but parks every search until
// released — a stand-in for a stuck or overloaded remote.
type blockingServer struct {
	meta    core.IndexMeta
	started chan struct{} // closed signal: a search is in flight
	release chan struct{}
}

func (s *blockingServer) MetaContext(context.Context) (core.IndexMeta, error) { return s.meta, nil }

func (s *blockingServer) SearchContext(_ context.Context, t *core.Trapdoor) (*core.Response, error) {
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-s.release
	return &core.Response{Ends: make([]int, t.Tokens())}, nil
}

func (s *blockingServer) FetchMany(_ context.Context, ids []core.ID) ([][]byte, error) {
	return make([][]byte, len(ids)), nil
}

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
	go func() { _ = serveLoop(reg, srvConn, nil, nil, 0) }()
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
