package transport

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
)

// panicStore is a real index whose Search, SearchBatch and FetchMany
// panic while armed. batchesOK lets that many SearchBatch calls through
// first, so a stream dies after emitting partial chunks.
type panicStore struct {
	*core.Index
	armed     atomic.Bool
	batchesOK atomic.Int32
}

func (p *panicStore) Search(t *core.Trapdoor) (*core.Response, error) {
	if p.armed.Load() {
		panic("search exploded")
	}
	return p.Index.Search(t)
}

func (p *panicStore) SearchBatch(ts []*core.Trapdoor) ([]*core.Response, error) {
	if p.armed.Load() && p.batchesOK.Add(-1) < 0 {
		var groups [][]byte
		_ = groups[len(ts)] // a runtime error, not a panic(string)
	}
	return p.Index.SearchBatch(ts)
}

func (p *panicStore) FetchMany(ctx context.Context, ids []core.ID) ([][]byte, error) {
	if p.armed.Load() {
		panic("fetch-many exploded")
	}
	return p.Index.FetchMany(ctx, ids)
}

// TestHandlerPanicContained: a handler panic costs its own request an
// error response and nothing else. On every op that reaches the index —
// search, batch, a stream that already emitted chunks, fetch-many — the
// caller gets the fixed server error (never a dead connection, never
// the panic text), the next request on the same connection succeeds,
// rsse_handler_panics_total and the Error log move once per panic, and
// Shutdown still drains: the in-flight accounting stayed balanced.
func TestHandlerPanicContained(t *testing.T) {
	client, index := batchTestIndex(t, 271)
	store := &panicStore{Index: index}
	srv := NewServer(singleRegistry(store))
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
	h := conn.Default()

	one := streamTrapdoors(t, client, 1)[0]
	few := streamTrapdoors(t, client, 3)
	many := streamTrapdoors(t, client, 3*streamChunkTokens)
	ops := []struct {
		op        string // its label in the log record
		batchesOK int32
		call      func() error
	}{
		{"search", 0, func() error { _, err := h.Search(one); return err }},
		{"batch", 0, func() error { _, err := h.SearchBatch(few); return err }},
		{"batch_stream", 0, func() error { _, err := h.SearchBatchStream(few); return err }},
		{"batch_stream", 2, func() error { _, err := h.SearchBatchStream(many); return err }},
		{"fetch_many", 0, func() error { _, err := h.FetchMany(context.Background(), []core.ID{1, 2}); return err }},
	}
	for _, tc := range ops {
		panicsBefore := tm.panics.Value()
		mu.Lock()
		logBuf.Reset()
		mu.Unlock()
		store.batchesOK.Store(tc.batchesOK)
		store.armed.Store(true)
		err := tc.call()
		store.armed.Store(false)
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
		for _, want := range []string{"level=ERROR", "handler panic", "op=" + tc.op, "index=" + DefaultIndex, "req=", "stack=", "panic_test.go"} {
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
