package lsm

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
	"rsse/internal/wal"
)

func testOpts() core.Options { return core.Options{SSE: sse.Basic{}} }

func testMaster(t testing.TB) prf.Key {
	t.Helper()
	var k prf.Key
	for i := range k {
		k[i] = byte(i + 1)
	}
	return k
}

func openTestManager(t *testing.T, dir string, syncEvery int) *Manager {
	t.Helper()
	m, err := OpenManager(dir, core.LogarithmicBRC, cover.Domain{Bits: 12}, 2, testMaster(t), testOpts(), syncEvery)
	if err != nil {
		t.Fatalf("OpenManager: %v", err)
	}
	return m
}

func queryAll(t *testing.T, m *Manager) []core.Tuple {
	t.Helper()
	tuples, _, err := queryOne(context.Background(), m, core.Range{Lo: 0, Hi: (1 << 12) - 1})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].ID < tuples[j].ID })
	return tuples
}

func TestDurableFlushReopen(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	for i := uint64(1); i <= 10; i++ {
		if err := m.Insert(i, i*100, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(3, 300); err != nil {
		t.Fatal(err)
	}
	if err := m.Modify(4, 400, 444, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	want := queryAll(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	got := queryAll(t, m2)
	assertSameTuples(t, got, want)
	if m2.Pending() != 0 {
		t.Fatalf("reopen after clean flush has %d pending ops", m2.Pending())
	}
	if m2.ActiveIndexes() != m.ActiveIndexes() {
		t.Fatalf("reopen holds %d indexes, want %d", m2.ActiveIndexes(), m.ActiveIndexes())
	}
}

// TestDurableCrashWithPending drops the manager without Close — the
// SIGKILL simulation — and asserts the replayed WAL reproduces the
// pending updates exactly, including their consumption by a later
// flush.
func TestDurableCrashWithPending(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	for i := uint64(1); i <= 6; i++ {
		if err := m.Insert(i, i*10, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// These land only in the WAL: no flush, no Close. Mixed kinds so the
	// replay covers tombstones and the atomic modify record.
	if err := m.Insert(7, 70, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(2, 20); err != nil {
		t.Fatal(err)
	}
	if err := m.Modify(3, 30, 35, []byte("three-v2")); err != nil {
		t.Fatal(err)
	}
	pendingWant := m.Pending()
	// Crash: the manager is abandoned, not closed (the hook drops the
	// WAL fd without syncing, releasing the advisory lock).
	m.Abandon()

	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	if m2.Pending() != pendingWant {
		t.Fatalf("recovered %d pending ops, want %d", m2.Pending(), pendingWant)
	}
	// Queries before the flush see only sealed epochs — same as the
	// crashed instance would have answered.
	got := queryAll(t, m2)
	if len(got) != 6 {
		t.Fatalf("pre-flush query sees %d tuples, want the 6 sealed ones", len(got))
	}
	// Flushing the recovered pending buffer applies the tail.
	if err := m2.Flush(); err != nil {
		t.Fatal(err)
	}
	got = queryAll(t, m2)
	ids := make(map[uint64]core.Tuple)
	for _, tup := range got {
		ids[tup.ID] = tup
	}
	if _, alive := ids[2]; alive {
		t.Fatal("deleted tuple 2 still alive after recovered flush")
	}
	if tup := ids[3]; tup.Value != 35 || string(tup.Payload) != "three-v2" {
		t.Fatalf("modify lost in recovery: %+v", tup)
	}
	if tup := ids[7]; tup.Value != 70 || string(tup.Payload) != "seven" {
		t.Fatalf("insert lost in recovery: %+v", tup)
	}
}

// TestDurableConsolidationPersists drives enough flushes to trigger
// consolidation and checks the directory holds exactly the active
// epochs' files afterwards — merged-away epochs are unlinked.
func TestDurableConsolidationPersists(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	id := uint64(1)
	for b := 0; b < 5; b++ {
		for i := 0; i < 4; i++ {
			if err := m.Insert(id, id%4096, nil); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	active := m.ActiveIndexes()
	want := queryAll(t, m)
	m.Close()

	files, err := filepath.Glob(filepath.Join(dir, "epoch-*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != active {
		t.Fatalf("directory holds %d epoch files for %d active epochs", len(files), active)
	}

	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	if m2.ActiveIndexes() != active {
		t.Fatalf("recovered %d active indexes, want %d", m2.ActiveIndexes(), active)
	}
	assertSameTuples(t, queryAll(t, m2), want)

	// Consolidation resumes across the restart: more flushes must keep
	// the logarithmic bound rather than piling up level 0.
	for b := 0; b < 3; b++ {
		if err := m2.Insert(id, id%4096, nil); err != nil {
			t.Fatal(err)
		}
		id++
		if err := m2.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m2.ActiveIndexes(); got > 4 {
		t.Fatalf("consolidation did not resume: %d active indexes after 8 batches at step 2", got)
	}
}

func TestDurableFullConsolidate(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	for i := uint64(1); i <= 9; i++ {
		if err := m.Insert(i, i*7, nil); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Delete(5, 35); err != nil {
		t.Fatal(err)
	}
	if err := m.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	want := queryAll(t, m)
	m.Close()

	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	if m2.ActiveIndexes() != 1 {
		t.Fatalf("full consolidation left %d indexes", m2.ActiveIndexes())
	}
	assertSameTuples(t, queryAll(t, m2), want)
}

func TestManifestMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	if err := m.Insert(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	if _, err := OpenManager(dir, core.Quadratic, cover.Domain{Bits: 12}, 2, testMaster(t), testOpts(), 1); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("wrong kind: got %v, want ErrManifestMismatch", err)
	}
	if _, err := OpenManager(dir, core.LogarithmicBRC, cover.Domain{Bits: 10}, 2, testMaster(t), testOpts(), 1); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("wrong bits: got %v, want ErrManifestMismatch", err)
	}
	if _, err := OpenManager(dir, core.LogarithmicBRC, cover.Domain{Bits: 12}, 3, testMaster(t), testOpts(), 1); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("wrong step: got %v, want ErrManifestMismatch", err)
	}

	meta, err := ReadManagerMeta(dir)
	if err != nil {
		t.Fatalf("ReadManagerMeta: %v", err)
	}
	if meta.Kind != core.LogarithmicBRC || meta.DomainBits != 12 || meta.Step != 2 {
		t.Fatalf("ReadManagerMeta = %+v", meta)
	}
}

// TestFreshDirPinsParamsBeforeFlush: the manifest is written at
// CREATION, not first flush, so a directory that crashes with only
// WAL-logged updates still refuses to reopen under different
// parameters (which would reinterpret its acknowledged records).
func TestFreshDirPinsParamsBeforeFlush(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	if err := m.Insert(1, 100, nil); err != nil {
		t.Fatal(err)
	}
	m.Abandon() // crash: no flush ever ran

	if _, err := OpenManager(dir, core.Quadratic, cover.Domain{Bits: 6}, 2, testMaster(t), testOpts(), 1); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("crashed-before-flush dir accepted wrong params: %v", err)
	}
	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	if m2.Pending() != 1 {
		t.Fatalf("recovered %d pending ops, want 1", m2.Pending())
	}
}

// flakySSE injects Build failures to exercise the flush error paths.
type flakySSE struct {
	inner sse.Scheme
	fails int
}

func (f *flakySSE) Name() string { return f.inner.Name() }

func (f *flakySSE) Build(entries []sse.Entry, width int, rnd *mrand.Rand, eng storage.Engine, suite prf.Suite) (sse.Index, error) {
	if f.fails > 0 {
		f.fails--
		return nil, errors.New("injected build failure")
	}
	return f.inner.Build(entries, width, rnd, eng, suite)
}

// TestFlushFailureKeepsPending pins the failed-flush contract: the
// acknowledged (WAL-logged) updates stay pending in memory, a retry
// seals them, and the eventual commit's high-water mark never buries
// their WAL records unsealed.
func TestFlushFailureKeepsPending(t *testing.T) {
	dir := t.TempDir()
	flaky := &flakySSE{inner: sse.Basic{}, fails: 1}
	m, err := OpenManager(dir, core.LogarithmicBRC, cover.Domain{Bits: 12}, 2, testMaster(t), core.Options{SSE: flaky}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(1, 100, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(2, 200, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err == nil {
		t.Fatal("injected build failure not surfaced")
	}
	if m.Pending() != 2 {
		t.Fatalf("failed flush left %d pending ops, want 2 restored", m.Pending())
	}
	if err := m.Flush(); err != nil { // retry succeeds
		t.Fatal(err)
	}
	if got := queryAll(t, m); len(got) != 2 {
		t.Fatalf("after retried flush: %d tuples, want 2", len(got))
	}
	m.Close()

	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	if got := queryAll(t, m2); len(got) != 2 {
		t.Fatalf("reopen after retried flush: %d tuples, want 2", len(got))
	}
}

// TestClosedManagerRefusesUpdates: a durable manager must not hand out
// durability acknowledgements after its WAL is gone, nor answer from
// epoch files it has released.
func TestClosedManagerRefusesUpdates(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	if err := m.Insert(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(2, 2, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: got %v, want ErrClosed", err)
	}
	if err := m.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: got %v, want ErrClosed", err)
	}
	if err := m.FullConsolidate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("FullConsolidate after Close: got %v, want ErrClosed", err)
	}
	// Close released the epochs' index files, so a query is refused too.
	if _, _, err := queryOne(context.Background(), m, core.Range{Lo: 0, Hi: 10}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close: got %v, want ErrClosed", err)
	}
	// Memory-only managers are unaffected: Close is a no-op for them.
	mem, err := NewManagerWithMaster(core.LogarithmicBRC, cover.Domain{Bits: 12}, 2, testMaster(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Insert(1, 1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleOpenRefused pins the advisory lock: two live managers on
// one directory would interleave WAL appends and resets, so the second
// open must fail fast with the typed wal.ErrLocked.
func TestDoubleOpenRefused(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	defer m.Close()
	_, err := OpenManager(dir, core.LogarithmicBRC, cover.Domain{Bits: 12}, 2, testMaster(t), testOpts(), 1)
	if !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("second open: got %v, want wal.ErrLocked", err)
	}
	// Close releases the lock; a fresh open succeeds.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := openTestManager(t, dir, 1)
	m2.Close()
}

// TestOrphanEpochCleanup plants a stray epoch file — the residue of a
// commit that crashed between epoch writes and the manifest rename —
// and checks open removes it without touching live epochs.
func TestOrphanEpochCleanup(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	if err := m.Insert(1, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	want := queryAll(t, m)
	m.Close()

	orphan := filepath.Join(dir, "epoch-999.idx")
	if err := os.WriteFile(orphan, []byte("leftover"), 0o600); err != nil {
		t.Fatal(err)
	}
	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan epoch file survived open: %v", err)
	}
	assertSameTuples(t, queryAll(t, m2), want)
}

// TestKillPointWALPrefix truncates a crashed directory's WAL at EVERY
// byte offset and asserts each truncation recovers a prefix-consistent
// index: the recovered store, flushed, answers exactly like a pristine
// manager fed the flushed history plus the records that survived the
// cut — never a reordering, a gap, or half a modify.
func TestKillPointWALPrefix(t *testing.T) {
	base := t.TempDir()
	m := openTestManager(t, base, 1)
	if err := m.Insert(1, 11, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// Five pending records of every kind, payloads of varying length —
	// these live only in the WAL when the "crash" happens.
	if err := m.Insert(2, 22, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(3, 33, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(2, 22); err != nil {
		t.Fatal(err)
	}
	if err := m.Modify(3, 33, 44, []byte("three-prime")); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(4, 55, []byte("four")); err != nil {
		t.Fatal(err)
	}
	// Crash without close; snapshot the directory.
	m.Abandon()
	snap := readDirFiles(t, base)
	blob := snap[WALFileName]

	for cut := 0; cut <= len(blob); cut++ {
		dir := filepath.Join(t.TempDir(), "cut")
		writeDirFiles(t, dir, snap)
		if err := os.WriteFile(filepath.Join(dir, WALFileName), blob[:cut], 0o600); err != nil {
			t.Fatal(err)
		}

		m2 := openTestManager(t, dir, 1)
		// The sealed epoch is untouched by WAL damage.
		if tuples := queryAll(t, m2); len(tuples) != 1 || tuples[0].ID != 1 {
			t.Fatalf("cut at %d: sealed epoch damaged: %+v", cut, tuples)
		}
		// An oracle replays the surviving record prefix onto the same
		// flushed history; after flushing both must agree exactly.
		recs := replayPrefix(t, blob[:cut])
		oracle, err := NewManagerWithMaster(core.LogarithmicBRC, cover.Domain{Bits: 12}, 2, testMaster(t), testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert(1, 11, nil); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Flush(); err != nil {
			t.Fatal(err)
		}
		wantPending := 0
		for _, rec := range recs {
			wantPending += int(rec.Span())
			var err error
			switch rec.Kind {
			case wal.Insert:
				err = oracle.Insert(rec.ID, rec.Value, rec.Payload)
			case wal.Delete:
				err = oracle.Delete(rec.ID, rec.Value)
			case wal.Modify:
				err = oracle.Modify(rec.ID, rec.Value, rec.NewValue, rec.Payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if m2.Pending() != wantPending {
			t.Fatalf("cut at %d: recovered %d pending ops, want %d", cut, m2.Pending(), wantPending)
		}
		if err := m2.Flush(); err != nil {
			t.Fatalf("cut at %d: flush of recovered prefix: %v", cut, err)
		}
		if err := oracle.Flush(); err != nil {
			t.Fatal(err)
		}
		got, want := queryAll(t, m2), queryAll(t, oracle)
		if len(got) != len(want) {
			t.Fatalf("cut at %d: recovered index has %d tuples, oracle %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Value != want[i].Value || string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("cut at %d: tuple %d: got %+v, want %+v", cut, i, got[i], want[i])
			}
		}
		m2.Close()
	}
}

// replayPrefix decodes the intact records of a WAL byte prefix.
func replayPrefix(t *testing.T, blob []byte) []wal.Record {
	t.Helper()
	recs, _, _, err := wal.Replay(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("replaying WAL prefix: %v", err)
	}
	return recs
}

// readDirFiles snapshots a flat directory's files into memory.
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = blob
	}
	return out
}

// writeDirFiles materializes a snapshot into a fresh directory.
func writeDirFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(dir, name), blob, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryIsExact compares a recovered manager against a live
// memory-only oracle fed the identical operation stream: queries over
// many ranges must agree tuple-for-tuple.
func TestRecoveryIsExact(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 4) // batched fsync: Flush still commits
	oracle, err := NewManagerWithMaster(core.LogarithmicBRC, cover.Domain{Bits: 12}, 2, testMaster(t), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(f func(mm *Manager) error) {
		t.Helper()
		if err := f(m); err != nil {
			t.Fatal(err)
		}
		if err := f(oracle); err != nil {
			t.Fatal(err)
		}
	}
	id := uint64(1)
	for b := 0; b < 6; b++ {
		for i := 0; i < 7; i++ {
			v := (id * 97) % 4096
			apply(func(mm *Manager) error { return mm.Insert(id, v, []byte{byte(id)}) })
			if id%5 == 0 {
				apply(func(mm *Manager) error { return mm.Modify(id, v, (v+13)%4096, nil) })
			}
			if id%7 == 0 {
				apply(func(mm *Manager) error { return mm.Delete(id-2, ((id-2)*97)%4096) })
			}
			id++
		}
		apply(func(mm *Manager) error { return mm.Flush() })
	}
	// Tail of unflushed ops, then crash.
	apply(func(mm *Manager) error { return mm.Insert(id, 1000, []byte("tail")) })
	apply(func(mm *Manager) error { return mm.Delete(1, 97) })
	if err := m.Sync(); err != nil { // batched policy: force the tail down
		t.Fatal(err)
	}
	m.Abandon() // crash

	m2 := openTestManager(t, dir, 4)
	defer m2.Close()
	apply2 := func(f func(mm *Manager) error) {
		t.Helper()
		if err := f(m2); err != nil {
			t.Fatal(err)
		}
		if err := f(oracle); err != nil {
			t.Fatal(err)
		}
	}
	apply2(func(mm *Manager) error { return mm.Flush() })
	for _, q := range []core.Range{{Lo: 0, Hi: 4095}, {Lo: 0, Hi: 2047}, {Lo: 1024, Hi: 3071}, {Lo: 4000, Hi: 4095}, {Lo: 97, Hi: 97}} {
		got, _, err := queryOne(context.Background(), m2, q)
		if err != nil {
			t.Fatalf("recovered query %v: %v", q, err)
		}
		want, _, err := queryOne(context.Background(), oracle, q)
		if err != nil {
			t.Fatalf("oracle query %v: %v", q, err)
		}
		sortTuples(got)
		sortTuples(want)
		assertSameTuples(t, got, want)
	}
}

func sortTuples(ts []core.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
}

func assertSameTuples(t *testing.T, got, want []core.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tuple count %d, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Value != w.Value || string(g.Payload) != string(w.Payload) {
			t.Fatalf("tuple %d differs: got %+v, want %+v", i, g, w)
		}
	}
}

// TestWALHighWaterSkip ensures a WAL that survived past its commit (the
// crash window between the manifest rename and the log reset) does not
// double-apply: records below the manifest's high-water mark are
// skipped on replay.
func TestWALHighWaterSkip(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1)
	if err := m.Insert(1, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(2, 200, nil); err != nil {
		t.Fatal(err)
	}
	// Snapshot the pre-flush WAL, flush (which resets it), then restore
	// the stale WAL — exactly the state a crash between manifest rename
	// and WAL reset leaves.
	walPath := filepath.Join(dir, WALFileName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := os.WriteFile(walPath, stale, 0o600); err != nil {
		t.Fatal(err)
	}

	m2 := openTestManager(t, dir, 1)
	defer m2.Close()
	if m2.Pending() != 0 {
		t.Fatalf("stale WAL records replayed: %d pending", m2.Pending())
	}
	if got := queryAll(t, m2); len(got) != 2 {
		t.Fatalf("query after stale-WAL open: %d tuples, want 2", len(got))
	}
	// And the log still appends cleanly after the skip.
	if err := m2.Insert(3, 300, nil); err != nil {
		t.Fatal(err)
	}
	if err := m2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := queryAll(t, m2); len(got) != 3 {
		t.Fatalf("append after skip: %d tuples, want 3", len(got))
	}
}

// TestReopenCopiesEpochOnce: reopening a durable store maps each epoch
// file and, on the default sorted engine, copies it once, so the reopen
// allocates less than 1.5× the epoch file. Reading the file onto the
// heap and then cloning it for the load allocated twice the file.
func TestReopenCopiesEpochOnce(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, 1<<20)
	const n = 4000
	payload := bytes.Repeat([]byte{'p'}, 512)
	for i := 0; i < n; i++ {
		if err := m.Insert(core.ID(i+1), core.Value(i%4096), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "epoch-*.idx"))
	if err != nil || len(files) != 1 {
		t.Fatalf("epoch files %v, %v; want one", files, err)
	}
	mf, err := storage.MapFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	size, mapped := len(mf.Data), mf.Mapped()
	mf.Close()
	if !mapped {
		t.Skip("no mmap on this platform: the file is read onto the heap before its copy")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m = openTestManager(t, dir, 1<<20)
	runtime.ReadMemStats(&after)
	defer m.Close()
	t.Logf("reopen allocated %d bytes for a %d-byte epoch file", after.TotalAlloc-before.TotalAlloc, size)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(size)*3/2; got >= limit {
		t.Fatalf("reopening a %d-byte epoch allocated %d bytes, want under %d (1.5× the file)", size, got, limit)
	}
	got, _, err := queryOne(context.Background(), m, core.Range{Lo: 0, Hi: 4095})
	if err != nil || len(got) != n {
		t.Fatalf("reopened store answers %d tuples, %v; want %d", len(got), err, n)
	}
}
