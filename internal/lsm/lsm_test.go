package lsm

import (
	"bytes"
	"context"
	mrand "math/rand"
	"sort"
	"testing"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/sse"
)

func testManager(t *testing.T, kind core.Kind, step int) *Manager {
	t.Helper()
	m, err := NewManager(kind, cover.Domain{Bits: 10}, step, core.Options{
		SSE:  sse.Basic{},
		Rand: mrand.New(mrand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// queryOne answers one range: QueryBatch on a batch of one.
func queryOne(ctx context.Context, m *Manager, q core.Range) ([]core.Tuple, QueryStats, error) {
	out, stats, err := m.QueryBatch(ctx, []core.Range{q})
	if err != nil {
		return nil, stats, err
	}
	return out[0], stats, nil
}

func queryIDs(t *testing.T, m *Manager, lo, hi uint64) []core.ID {
	t.Helper()
	res, _, err := queryOne(context.Background(), m, core.Range{Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]core.ID, len(res))
	for i, tu := range res {
		ids[i] = tu.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func wantIDs(ids ...core.ID) []core.ID { return ids }

func idsEqual(a, b []core.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertFlushQuery(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 4)
	m.Insert(1, 100, []byte("a"))
	m.Insert(2, 200, []byte("b"))
	m.Insert(3, 300, nil)
	if m.Pending() != 3 {
		t.Fatalf("Pending = %d", m.Pending())
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Pending() != 0 || m.ActiveIndexes() != 1 || m.Batches() != 1 {
		t.Fatalf("post-flush state: pending=%d active=%d batches=%d",
			m.Pending(), m.ActiveIndexes(), m.Batches())
	}
	if got := queryIDs(t, m, 50, 250); !idsEqual(got, wantIDs(1, 2)) {
		t.Errorf("query = %v", got)
	}
	// Payload survives the roundtrip.
	res, _, err := queryOne(context.Background(), m, core.Range{Lo: 100, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || string(res[0].Payload) != "a" || res[0].Value != 100 {
		t.Errorf("tuple = %+v", res)
	}
}

func TestQueryAcrossBatches(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 10)
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 5; i++ {
			id := core.ID(batch*5 + i + 1)
			m.Insert(id, uint64(batch*100+i*10), nil)
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ActiveIndexes() != 3 {
		t.Fatalf("ActiveIndexes = %d", m.ActiveIndexes())
	}
	got := queryIDs(t, m, 0, 1023)
	if len(got) != 15 {
		t.Errorf("full query returned %d of 15", len(got))
	}
	_, stats, err := queryOne(context.Background(), m, core.Range{Lo: 0, Hi: 1023})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Indexes != 3 {
		t.Errorf("stats.Indexes = %d", stats.Indexes)
	}
	if stats.Tokens < 3 {
		t.Errorf("stats.Tokens = %d", stats.Tokens)
	}
}

func TestDeleteAcrossBatches(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 10)
	m.Insert(1, 100, []byte("victim"))
	m.Insert(2, 110, nil)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Delete(1, 100)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, m, 0, 1023); !idsEqual(got, wantIDs(2)) {
		t.Errorf("after delete, query = %v", got)
	}
}

func TestModifyMovesValue(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 10)
	m.Insert(7, 50, []byte("v1"))
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Modify(7, 50, 900, []byte("v2"))
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, m, 0, 100); len(got) != 0 {
		t.Errorf("old value still visible: %v", got)
	}
	res, _, err := queryOne(context.Background(), m, core.Range{Lo: 850, Hi: 950})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 7 || string(res[0].Payload) != "v2" {
		t.Errorf("modified tuple = %+v", res)
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 10)
	m.Insert(1, 100, []byte("old"))
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Delete(1, 100)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Insert(1, 100, []byte("new"))
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	res, _, err := queryOne(context.Background(), m, core.Range{Lo: 100, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || string(res[0].Payload) != "new" {
		t.Errorf("re-insert result = %+v", res)
	}
}

// TestConsolidation: after `step` flushes the level-0 epochs must merge,
// keeping the active index count logarithmic and the results unchanged.
func TestConsolidation(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 3)
	for batch := 0; batch < 9; batch++ {
		m.Insert(core.ID(batch+1), uint64(batch*10), nil)
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// 9 batches with step 3: level0 merges at 3 and 6 and 9 → three
	// level-1 epochs → they merge into one level-2 epoch.
	if m.ActiveIndexes() != 1 {
		t.Errorf("ActiveIndexes = %d after 9 flushes with step 3", m.ActiveIndexes())
	}
	if got := queryIDs(t, m, 0, 100); len(got) != 9 {
		t.Errorf("query after consolidation returned %d of 9", len(got))
	}
}

func TestConsolidationBound(t *testing.T) {
	m := testManager(t, core.ConstantBRC, 4)
	for batch := 0; batch < 30; batch++ {
		m.Insert(core.ID(batch+1), uint64(batch), nil)
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		// O(s * log_s b) active indexes at all times.
		if max := 4 * 6; m.ActiveIndexes() > max {
			t.Fatalf("batch %d: %d active indexes", batch, m.ActiveIndexes())
		}
	}
}

// TestConsolidationPreservesTombstones: a delete whose victim lives in an
// older, unmerged epoch must survive its own consolidation.
func TestConsolidationPreservesTombstones(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 2)
	m.Insert(1, 100, nil)
	if err := m.Flush(); err != nil { // epoch A holds the victim
		t.Fatal(err)
	}
	m.Insert(2, 200, nil)
	if err := m.Flush(); err != nil { // A+B merge into level 1
		t.Fatal(err)
	}
	m.Delete(1, 100)
	if err := m.Flush(); err != nil { // epoch C: tombstone alone
		t.Fatal(err)
	}
	m.Insert(3, 300, nil)
	if err := m.Flush(); err != nil { // C+D merge: tombstone must survive
		t.Fatal(err)
	}
	if got := queryIDs(t, m, 0, 1023); !idsEqual(got, wantIDs(2, 3)) {
		t.Errorf("query = %v, want [2 3]", got)
	}
}

func TestFullConsolidate(t *testing.T) {
	m := testManager(t, core.LogarithmicSRC, 5)
	for i := 0; i < 4; i++ {
		m.Insert(core.ID(i+1), uint64(i*100), nil)
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	m.Delete(2, 100)
	if err := m.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	if m.ActiveIndexes() != 1 {
		t.Errorf("ActiveIndexes = %d after full consolidation", m.ActiveIndexes())
	}
	if got := queryIDs(t, m, 0, 1023); !idsEqual(got, wantIDs(1, 3, 4)) {
		t.Errorf("query = %v", got)
	}
	// Tombstones must be gone: total records = 3 live ops.
	var live int
	for _, lvl := range m.levels {
		for _, e := range lvl {
			live += e.index.N()
		}
	}
	if live != 3 {
		t.Errorf("consolidated index holds %d records, want 3", live)
	}
}

// TestForwardPrivacy replays an epoch-1 trapdoor against the epoch-2
// index: it must decrypt nothing, because every epoch has fresh keys.
func TestForwardPrivacy(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 10)
	m.Insert(1, 500, nil)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	oldEpoch := m.levels[0][0]
	oldTrapdoor, err := oldEpoch.client.Trapdoor(core.Range{Lo: 400, Hi: 600})
	if err != nil {
		t.Fatal(err)
	}
	// The old token works against its own index...
	resp, err := oldEpoch.index.SearchContext(context.Background(), oldTrapdoor)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items() == 0 {
		t.Fatal("old trapdoor found nothing in its own epoch")
	}
	// ...but a new batch containing a matching tuple is invisible to it.
	m.Insert(2, 500, nil)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	newEpoch := m.levels[0][1]
	resp, err = newEpoch.index.SearchContext(context.Background(), oldTrapdoor)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items() != 0 {
		t.Errorf("old trapdoor matched %d items in a later epoch: forward privacy broken", resp.Items())
	}
}

// TestSyntheticIDsHideApplicationIDs: the ids visible to the server
// (store ids) must not be the application ids.
func TestSyntheticIDsHideApplicationIDs(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 10)
	appID := core.ID(0xDEADBEEF)
	m.Insert(appID, 100, nil)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, storeID := range m.levels[0][0].index.Store().IDs() {
		if storeID == appID {
			t.Error("application id leaked as store id")
		}
	}
	if got := queryIDs(t, m, 100, 100); !idsEqual(got, wantIDs(appID)) {
		t.Errorf("application id not recovered: %v", got)
	}
}

func TestEmptyFlushNoop(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 3)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.ActiveIndexes() != 0 || m.Batches() != 0 {
		t.Error("empty flush created an epoch")
	}
	if err := m.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	if got := queryIDs(t, m, 0, 1023); len(got) != 0 {
		t.Errorf("empty manager returned %v", got)
	}
}

func TestBadStep(t *testing.T) {
	if _, err := NewManager(core.LogarithmicBRC, cover.Domain{Bits: 4}, 1, core.Options{}); err == nil {
		t.Error("step 1 accepted")
	}
}

func TestManagerWithAllSchemes(t *testing.T) {
	for _, kind := range []core.Kind{
		core.ConstantBRC, core.ConstantURC,
		core.LogarithmicBRC, core.LogarithmicURC,
		core.LogarithmicSRC, core.LogarithmicSRCi,
	} {
		m, err := NewManager(kind, cover.Domain{Bits: 10}, 3, core.Options{
			SSE:  sse.Basic{},
			Rand: mrand.New(mrand.NewSource(2)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			m.Insert(core.ID(i+1), uint64(i*100), []byte{byte(i)})
			if err := m.Flush(); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
		m.Delete(3, 200)
		if err := m.Flush(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		got := queryIDs(t, m, 0, 550)
		if !idsEqual(got, wantIDs(1, 2, 4, 5, 6)) {
			t.Errorf("%v: query = %v", kind, got)
		}
	}
}

func TestTotalIndexSizeGrows(t *testing.T) {
	m := testManager(t, core.LogarithmicBRC, 10)
	m.Insert(1, 1, nil)
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	small := m.TotalIndexSize()
	for i := 0; i < 50; i++ {
		m.Insert(core.ID(i+10), uint64(i), bytes.Repeat([]byte{1}, 16))
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.TotalIndexSize() <= small {
		t.Error("TotalIndexSize did not grow")
	}
}

func TestOpEncodeDecodeRoundtrip(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, ID: 42, Value: 7, Payload: []byte("hello"), seq: 9},
		{Kind: OpDelete, ID: 1, Value: 0, seq: 0},
		{Kind: OpInsert, ID: ^core.ID(0), Value: 1023, Payload: nil, seq: ^uint64(0)},
	}
	for _, op := range ops {
		got, err := decodeOp(op.Value, encodeOp(op))
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != op.Kind || got.ID != op.ID || got.seq != op.seq ||
			!bytes.Equal(got.Payload, op.Payload) {
			t.Errorf("roundtrip: got %+v, want %+v", got, op)
		}
	}
	if _, err := decodeOp(0, []byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := decodeOp(0, bytes.Repeat([]byte{9}, 17)); err == nil {
		t.Error("unknown op kind accepted")
	}
}
