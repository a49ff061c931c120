package transport

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"

	"rsse/internal/core"
)

// memStore is a minimal in-memory Updatable for wire-level tests: it
// applies updates to a map and answers range queries from it.
type memStore struct {
	mu      sync.Mutex
	tuples  map[core.ID]core.Tuple
	pending int
	flushes int
	failAll bool
}

func newMemStore() *memStore { return &memStore{tuples: make(map[core.ID]core.Tuple)} }

func (s *memStore) ApplyUpdate(u Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAll {
		return errors.New("store offline")
	}
	switch u.Kind {
	case UpdateInsert:
		s.tuples[u.ID] = core.Tuple{ID: u.ID, Value: u.Value, Payload: u.Payload}
	case UpdateDelete:
		delete(s.tuples, u.ID)
	case UpdateModify:
		s.tuples[u.ID] = core.Tuple{ID: u.ID, Value: u.NewValue, Payload: u.Payload}
	default:
		return errors.New("bad kind")
	}
	s.pending++
	return nil
}

func (s *memStore) FlushUpdates() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = 0
	s.flushes++
	return nil
}

func (s *memStore) QueryTuples(q core.Range) ([]core.Tuple, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []core.Tuple
	for _, t := range s.tuples {
		if q.Contains(t.Value) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func TestUpdateOpsOverWire(t *testing.T) {
	store := newMemStore()
	reg := NewRegistry()
	if err := reg.RegisterUpdatable("dyn", store); err != nil {
		t.Fatal(err)
	}
	h := pipeRegistry(t, reg).Updatable("dyn")

	if err := h.ApplyContext(context.Background(), Update{Kind: UpdateInsert, ID: 1, Value: 100, Payload: []byte("alice")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := h.ApplyContext(context.Background(), Update{Kind: UpdateInsert, ID: 2, Value: 200}); err != nil {
		t.Fatalf("insert without payload: %v", err)
	}
	if err := h.ApplyContext(context.Background(), Update{Kind: UpdateModify, ID: 1, Value: 100, NewValue: 150, Payload: []byte("alice-v2")}); err != nil {
		t.Fatalf("modify: %v", err)
	}
	if err := h.ApplyContext(context.Background(), Update{Kind: UpdateDelete, ID: 2, Value: 200}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := h.FlushContext(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := h.QueryRangeContext(context.Background(), core.Range{Lo: 0, Hi: 1023})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(got) != 1 || got[0].ID != 1 || got[0].Value != 150 || string(got[0].Payload) != "alice-v2" {
		t.Fatalf("query result: %+v", got)
	}
	if store.flushes != 1 {
		t.Fatalf("server saw %d flushes, want 1", store.flushes)
	}
}

func TestUpdateNamespaceIsolation(t *testing.T) {
	// The same name can serve a read index and a writable store: ops
	// route by namespace, not by name alone.
	_, idx, tuples := testClientIndex(t, core.LogarithmicBRC)
	store := newMemStore()
	reg := NewRegistry()
	if err := reg.Register("users", idx); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterUpdatable("users", store); err != nil {
		t.Fatal(err)
	}
	conn := pipeRegistry(t, reg)

	// Read namespace still answers Meta for the index.
	meta, err := conn.Index("users").MetaContext(context.Background())
	if err != nil {
		t.Fatalf("read-namespace meta: %v", err)
	}
	if meta.N != len(tuples) {
		t.Fatalf("meta.N = %d, want %d", meta.N, len(tuples))
	}
	// Update namespace hits the store.
	if err := conn.Updatable("users").ApplyContext(context.Background(), Update{Kind: UpdateInsert, ID: 9, Value: 9}); err != nil {
		t.Fatalf("update-namespace apply: %v", err)
	}
	if len(store.tuples) != 1 {
		t.Fatalf("store holds %d tuples, want 1", len(store.tuples))
	}
	// Unknown writable name errors without killing the connection.
	err = conn.Updatable("nope").FlushContext(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no writable store") {
		t.Fatalf("unknown updatable: %v", err)
	}
	if err := conn.Updatable("users").FlushContext(context.Background()); err != nil {
		t.Fatalf("connection dead after routing error: %v", err)
	}
}

func TestUpdateErrorsPropagate(t *testing.T) {
	store := newMemStore()
	store.failAll = true
	reg := NewRegistry()
	if err := reg.RegisterUpdatable("dyn", store); err != nil {
		t.Fatal(err)
	}
	h := pipeRegistry(t, reg).Updatable("dyn")
	err := h.ApplyContext(context.Background(), Update{Kind: UpdateInsert, ID: 1, Value: 1})
	if err == nil || !strings.Contains(err.Error(), "store offline") {
		t.Fatalf("server error not propagated: %v", err)
	}
	// Malformed update kind is rejected server-side.
	err = h.ApplyContext(context.Background(), Update{Kind: 77, ID: 1, Value: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown update kind") {
		t.Fatalf("bad kind not rejected: %v", err)
	}
}

func TestRegisterUpdatableValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterUpdatable("dyn", nil); err == nil {
		t.Fatal("nil updatable accepted")
	}
	if err := reg.RegisterUpdatable("", newMemStore()); !errors.Is(err, ErrBadIndexName) {
		t.Fatalf("empty name: %v", err)
	}
	if err := reg.RegisterUpdatable("dyn", newMemStore()); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterUpdatable("dyn", newMemStore()); !errors.Is(err, ErrDuplicateIndex) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestTuplesWireRoundTrip(t *testing.T) {
	in := []core.Tuple{
		{ID: 1, Value: 10, Payload: []byte("x")},
		{ID: 2, Value: 20},
		{ID: 3, Value: 1 << 40, Payload: make([]byte, 300)},
	}
	out, err := unmarshalTuples(marshalTuples(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost tuples: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Value != in[i].Value || string(out[i].Payload) != string(in[i].Payload) {
			t.Fatalf("tuple %d differs: %+v vs %+v", i, out[i], in[i])
		}
	}
	// Truncated and lying-count payloads fail cleanly.
	blob := marshalTuples(in)
	if _, err := unmarshalTuples(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated tuples accepted")
	}
	blob[0], blob[1], blob[2], blob[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := unmarshalTuples(blob); err == nil {
		t.Fatal("lying count accepted")
	}
}
