package transport

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	mrand "math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// panicStore is a real index whose SearchContext and FetchMany panic
// while armed.
type panicStore struct {
	*core.Index
	armed atomic.Bool
}

func (p *panicStore) SearchContext(ctx context.Context, t *core.Trapdoor) (*core.Response, error) {
	if p.armed.Load() {
		panic("search exploded")
	}
	return p.Index.SearchContext(ctx, t)
}

func (p *panicStore) FetchMany(ctx context.Context, ids []core.ID) ([][]byte, error) {
	if p.armed.Load() {
		panic("fetch-many exploded")
	}
	return p.Index.FetchMany(ctx, ids)
}

// tokenPanicSSE builds Basic dictionaries whose Search panics in the
// call that reaches the left-th stag from now: inside a real
// *core.Index that is the search of some token, deep inside
// Index.SearchContext on the handler's goroutine. left <= 0 is disarmed.
type tokenPanicSSE struct{ left *atomic.Int32 }

func (p tokenPanicSSE) Name() string { return "basic" }

func (p tokenPanicSSE) Build(entries []sse.Entry, width int, rnd *mrand.Rand, eng storage.Engine, suite prf.Suite) (sse.Index, error) {
	idx, err := sse.Basic{}.Build(entries, width, rnd, eng, suite)
	return tokenPanicIndex{idx, p.left}, err
}

type tokenPanicIndex struct {
	sse.Index
	left *atomic.Int32
}

func (x tokenPanicIndex) Search(stags []sse.Stag, data []byte, ends []int) ([]byte, []int, error) {
	n := int32(len(stags))
	if left := x.left.Add(-n); left <= 0 && left+n > 0 {
		_ = ends[len(ends)] // a runtime error, not a panic(string)
	}
	return x.Index.Search(stags, data, ends)
}

// TestHandlerPanicContained: a handler panic costs its own request an
// error response and nothing else. On every op that reaches the index —
// a search and a 40-range QueryBatch round, a fetch-many and a single
// fetch, and a search and a batch round whose third token panics in the
// dictionary, under Index.Search — the caller gets the fixed server
// error (never a dead connection, never the panic text), the next
// request on the same connection succeeds, rsse_handler_panics_total
// and the Error log move once per panic (with the stack of the
// goroutine that panicked), and Shutdown still drains: the in-flight
// accounting stayed balanced.
func TestHandlerPanicContained(t *testing.T) {
	client, index := batchTestIndex(t, 271)
	store := &panicStore{Index: index}
	reg := singleRegistry(store)
	// A second, real index whose dictionary panics mid-search.
	var left atomic.Int32
	wclient, err := core.NewClient(core.LogarithmicBRC, cover.Domain{Bits: 10}, core.Options{
		SSE: tokenPanicSSE{&left}, Rand: mrand.New(mrand.NewSource(272)),
	})
	if err != nil {
		t.Fatal(err)
	}
	windex, err := wclient.BuildIndex([]core.Tuple{{ID: 1, Value: 5}, {ID: 2, Value: 700}})
	if err != nil {
		t.Fatal(err)
	}
	const dictIndex = "dict"
	if err := reg.Register(dictIndex, windex); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	var mu sync.Mutex
	var logBuf bytes.Buffer
	srv.SetLogger(slog.New(slog.NewTextHandler(lockedWriter{&mu, &logBuf}, nil)))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	conn, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h, wh := conn.Default(), conn.Index(dictIndex)
	// A batch round is one search frame; the meta exchange before it
	// reaches no armed code.
	batch := func(c *core.Client, h *IndexHandle) error {
		_, err := c.QueryBatchContext(context.Background(), h, batchRanges(40))
		return err
	}

	one, err := client.Trapdoor(core.Range{Lo: 0, Hi: 39})
	if err != nil {
		t.Fatal(err)
	}
	wrange, err := wclient.Trapdoor(core.Range{Lo: 3, Hi: 1020}) // a many-token cover
	if err != nil {
		t.Fatal(err)
	}
	if wrange.Tokens() < 3 {
		t.Fatalf("cover has %d tokens, the third one must panic", wrange.Tokens())
	}
	arm := func() { store.armed.Store(true) }
	armThirdToken := func() { left.Store(3) }
	ops := []struct {
		op    string // its label in the log record
		index string
		arm   func()
		stack string // a frame only this panic's stack has
		call  func() error
	}{
		{"search", DefaultIndex, arm, "panicStore", func() error { _, err := h.SearchContext(context.Background(), one); return err }},
		{"search", DefaultIndex, arm, "panicStore", func() error { return batch(client, h) }},
		{"fetch_many", DefaultIndex, arm, "panicStore", func() error { _, err := h.FetchMany(context.Background(), []core.ID{1, 2}); return err }},
		{"fetch_many", DefaultIndex, arm, "panicStore", func() error { _, _, err := h.FetchContext(context.Background(), 1); return err }},
		{"search", dictIndex, armThirdToken, "tokenPanicIndex", func() error { _, err := wh.SearchContext(context.Background(), wrange); return err }},
		{"search", dictIndex, armThirdToken, "tokenPanicIndex", func() error { return batch(wclient, wh) }},
	}
	for _, tc := range ops {
		panicsBefore := tm.panics.Value()
		mu.Lock()
		logBuf.Reset()
		mu.Unlock()
		tc.arm()
		err := tc.call()
		store.armed.Store(false)
		left.Store(0)
		if err == nil || !strings.Contains(err.Error(), errHandlerPanic.Error()) {
			t.Fatalf("%s: err = %v, want the server's %q", tc.op, err, errHandlerPanic)
		}
		if errors.Is(err, ErrConnDead) || errors.Is(err, ErrOverloaded) || strings.Contains(err.Error(), "exploded") {
			t.Fatalf("%s: err = %v: a contained panic is a plain server error with a fixed message", tc.op, err)
		}
		if got := tm.panics.Value() - panicsBefore; got != 1 {
			t.Errorf("%s: rsse_handler_panics_total moved by %d, want 1", tc.op, got)
		}
		mu.Lock()
		rec := logBuf.String()
		mu.Unlock()
		for _, want := range []string{"level=ERROR", "handler panic", "op=" + tc.op, "index=" + tc.index, "req=", "stack=", "panic_test.go", tc.stack} {
			if !strings.Contains(rec, want) {
				t.Errorf("%s: log record lacks %q:\n%s", tc.op, want, rec)
			}
		}
		if n := strings.Count(rec, "handler panic"); n != 1 {
			t.Errorf("%s: %d panic records, want 1", tc.op, n)
		}
		// Same connection, same op, disarmed: served normally.
		if err := tc.call(); err != nil {
			t.Fatalf("%s after a contained panic: %v", tc.op, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after contained panics did not drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
}
