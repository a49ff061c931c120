package rsse_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"

	"rsse"
	"rsse/internal/wal"
)

// durableDomainBits keeps the Quadratic baseline on a small domain.
func durableDomainBits(kind rsse.Kind) uint8 {
	if kind == rsse.Quadratic {
		return 6
	}
	return 10
}

// dynOptions are the construction options every durable-test store and
// its oracle share (intersecting queries allowed so randomized ranges
// apply to the Constant schemes too).
func dynOptions(extra ...rsse.Option) []rsse.Option {
	return append([]rsse.Option{rsse.AllowIntersectingQueries()}, extra...)
}

// driveUpdates streams a deterministic mixed workload — inserts,
// deletes, modifies, periodic flushes — into every given store (the
// durable one and its never-crashed oracle get identical histories).
// It leaves a tail of pending (unflushed) operations.
func driveUpdates(t *testing.T, bits uint8, stores ...*rsse.Dynamic) {
	t.Helper()
	m := uint64(1) << bits
	val := func(id uint64) uint64 { return (id * 37) % m }
	apply := func(f func(s *rsse.Dynamic) error) {
		t.Helper()
		for _, s := range stores {
			if err := f(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	id := uint64(1)
	for batch := 0; batch < 4; batch++ {
		for i := 0; i < 9; i++ {
			cur := id
			apply(func(s *rsse.Dynamic) error {
				return s.Insert(cur, val(cur), []byte{byte(cur), byte(cur >> 8)})
			})
			if cur%4 == 0 {
				apply(func(s *rsse.Dynamic) error {
					return s.Modify(cur, val(cur), (val(cur)+m/2)%m, []byte("moved"))
				})
			}
			if cur%5 == 0 && cur > 3 {
				victim := cur - 3
				v := val(victim)
				if victim%4 == 0 {
					v = (v + m/2) % m
				}
				apply(func(s *rsse.Dynamic) error { return s.Delete(victim, v) })
			}
			id++
		}
		apply(func(s *rsse.Dynamic) error { return s.Flush() })
	}
	// Pending tail: acknowledged, WAL-only, never flushed before the
	// simulated crash.
	tail := id
	apply(func(s *rsse.Dynamic) error {
		if err := s.Insert(tail, val(tail), []byte("tail")); err != nil {
			return err
		}
		return s.Delete(1, val(1))
	})
}

// TestDurableRecoveryDifferential is the acceptance proof: for all 7
// schemes, a durable Dynamic that crashes (abandoned without Close)
// with sealed epochs AND a pending WAL tail must, after reopening,
// answer 100 randomized ranges byte-identically to a never-crashed
// store fed the identical update stream — before and after the
// recovered tail is flushed.
func TestDurableRecoveryDifferential(t *testing.T) {
	for _, kind := range rsse.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			bits := durableDomainBits(kind)
			dir := t.TempDir()
			d, err := rsse.OpenDynamic(dir, kind, bits, 2, dynOptions()...)
			must(t, err)
			oracle, err := rsse.NewDynamic(kind, bits, 2, dynOptions()...)
			must(t, err)
			driveUpdates(t, bits, d, oracle)
			// Crash: d is dropped without Close or final Flush (the hook
			// releases the WAL's advisory lock without syncing, leaving
			// on-disk state exactly as SIGKILL would).
			rsse.Crash(d)

			d2, err := rsse.OpenDynamic(dir, kind, bits, 2, dynOptions()...)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer d2.Close()
			if d2.Pending() != oracle.Pending() {
				t.Fatalf("recovered %d pending ops, oracle has %d", d2.Pending(), oracle.Pending())
			}
			ranges := genRanges(bits, 100, 1)
			compare := func(phase string) {
				t.Helper()
				for _, q := range ranges {
					got, _, err := d2.QueryContext(context.Background(), q)
					if err != nil {
						t.Fatalf("%s: recovered query %v: %v", phase, q, err)
					}
					want, _, err := oracle.QueryContext(context.Background(), q)
					if err != nil {
						t.Fatalf("%s: oracle query %v: %v", phase, q, err)
					}
					if err := newModel(want).check(kind, q, tupleAnswer(got)); err != nil {
						t.Fatalf("%s: %v", phase, err)
					}
				}
			}
			compare("pre-flush")
			if err := d2.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Flush(); err != nil {
				t.Fatal(err)
			}
			compare("post-flush")
		})
	}
}

// TestShardedDynamicDurableReopen round-trips a sharded durable store
// through a crash and checks per-shard recovery plus topology
// validation.
func TestShardedDynamicDurableReopen(t *testing.T) {
	dir := t.TempDir()
	const bits, shards = 10, 4
	d, err := rsse.OpenShardedDynamic(dir, rsse.LogarithmicBRC, bits, shards, 2, dynOptions()...)
	must(t, err)
	oracle, err := rsse.NewShardedDynamic(rsse.LogarithmicBRC, bits, shards, 2, dynOptions()...)
	must(t, err)
	driveUpdates(t, bits, d, oracle)
	// Crash without Close.
	rsse.Crash(d)

	if _, err := rsse.OpenShardedDynamic(dir, rsse.LogarithmicBRC, bits, shards+1, 2, dynOptions()...); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	d2, err := rsse.OpenShardedDynamic(dir, rsse.LogarithmicBRC, bits, shards, 2, dynOptions()...)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer d2.Close()
	if err := d2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, q := range genRanges(bits, 40, 2) {
		got, _, err := d2.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("recovered query %v: %v", q, err)
		}
		want, _, err := oracle.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("oracle query %v: %v", q, err)
		}
		must(t, newModel(want).check(rsse.LogarithmicBRC, q, tupleAnswer(got)))
	}
}

// TestDynamicRefusesMasterKey: every Dynamic constructor refuses
// WithMasterKey — a store draws its own key, and a durable one keeps it
// in its directory — rather than silently ignoring the key it was given.
// A refused durable open leaves its directory untouched.
func TestDynamicRefusesMasterKey(t *testing.T) {
	key := rsse.WithMasterKey(make([]byte, 32))
	for _, c := range []struct {
		name string
		open func(dir string) (*rsse.Dynamic, error)
	}{
		{"NewDynamic", func(string) (*rsse.Dynamic, error) {
			return rsse.NewDynamic(rsse.LogarithmicBRC, 8, 0, key)
		}},
		{"NewShardedDynamic", func(string) (*rsse.Dynamic, error) {
			return rsse.NewShardedDynamic(rsse.LogarithmicBRC, 8, 2, 0, key)
		}},
		{"OpenDynamic", func(dir string) (*rsse.Dynamic, error) {
			return rsse.OpenDynamic(dir, rsse.LogarithmicBRC, 8, 0, key)
		}},
		{"OpenShardedDynamic", func(dir string) (*rsse.Dynamic, error) {
			return rsse.OpenShardedDynamic(dir, rsse.LogarithmicBRC, 8, 2, 0, key)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			d, err := c.open(dir)
			if err == nil {
				d.Close()
				t.Fatal("WithMasterKey accepted")
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("refused open touched its directory: %v", err)
			}
		})
	}
}

// TestShardedDynamicSeededShardsQueryConcurrently: WithSeed on a durable
// sharded store gives every shard a shuffle source of its own. The
// shards of one query run concurrently, and each epoch client draws its
// trapdoor permutations from its source, so a source shared across
// shards is a data race under -race.
func TestShardedDynamicSeededShardsQueryConcurrently(t *testing.T) {
	const bits = 12
	d, err := rsse.OpenShardedDynamic(t.TempDir(), rsse.LogarithmicBRC, bits, 4, 2, rsse.WithSeed(3))
	must(t, err)
	defer d.Close()
	var inserted []rsse.Tuple
	for i := 0; i < 400; i++ {
		tup := rsse.Tuple{ID: uint64(i + 1), Value: uint64(i*37) % (1 << bits)}
		if err := d.Insert(tup.ID, tup.Value, nil); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, tup)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	q := rsse.Range{Lo: 100, Hi: 4000}
	want := 0
	for _, tup := range inserted {
		if q.Contains(tup.Value) {
			want++
		}
	}
	for i := 0; i < 50; i++ {
		got, _, err := d.QueryContext(context.Background(), q)
		must(t, err)
		if len(got) != want {
			t.Fatalf("query %d: %d tuples, want %d", i, len(got), want)
		}
	}
}

// TestCrossShardModifyCrashNeverResurrects is the regression test for
// the cross-shard modify ordering: the tombstone is durably logged on
// the old shard BEFORE the insertion is logged on the new one, so a
// crash between the two — simulated by wiping the new shard's WAL tail
// — may lose the new value but can never bring the old value back.
func TestCrossShardModifyCrashNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	const bits, shards = 10, 2
	d, err := rsse.OpenShardedDynamic(dir, rsse.LogarithmicBRC, bits, shards, 2, dynOptions()...)
	must(t, err)
	m := uint64(1) << bits
	oldValue := m / 4     // shard 0
	newValue := 3 * m / 4 // shard 1
	if d.ShardOf(oldValue) == d.ShardOf(newValue) {
		t.Fatal("test values landed on one shard")
	}
	if err := d.Insert(1, oldValue, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// The cross-shard move: tombstone on shard 0 (synced), insertion on
	// shard 1.
	if err := d.Modify(1, oldValue, newValue, []byte("moved")); err != nil {
		t.Fatal(err)
	}
	// Crash between the two records: abandon d and erase the NEW shard's
	// WAL — the insertion is gone, the tombstone must already be durable
	// on the old shard. (Truncating to any prefix behaves the same; empty
	// is the worst case.)
	rsse.Crash(d)
	newShardWAL := filepath.Join(dir, "shard-001", "wal.log")
	blob, err := os.ReadFile(newShardWAL)
	must(t, err)
	if len(blob) <= 8 {
		t.Fatal("test setup: new shard's WAL does not hold the insertion")
	}
	if err := os.Truncate(newShardWAL, 0); err != nil {
		t.Fatal(err)
	}

	d2, err := rsse.OpenShardedDynamic(dir, rsse.LogarithmicBRC, bits, shards, 2, dynOptions()...)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer d2.Close()
	if err := d2.Flush(); err != nil {
		t.Fatal(err)
	}
	tuples, _, err := d2.QueryContext(context.Background(), rsse.Range{Lo: 0, Hi: m - 1})
	must(t, err)
	for _, tup := range tuples {
		if tup.ID == 1 && tup.Value == oldValue {
			t.Fatalf("crash between cross-shard records resurrected the old value: %+v", tup)
		}
	}
	// The reverse order would fail exactly this way: verify the old
	// shard's WAL held a synced tombstone by checking the old value is
	// gone even though the insertion never made it.
	if len(tuples) != 0 {
		t.Fatalf("expected no live tuples (insertion lost, tombstone applied), got %+v", tuples)
	}
}

// TestRemoteUpdatesDurable drives the full remote path: rsse-owner-style
// updates over a connection into a served durable Dynamic, a simulated
// server crash, and a restart that recovers everything acknowledged.
func TestRemoteUpdatesDurable(t *testing.T) {
	dir := t.TempDir()
	const bits = 10
	open := func() *rsse.Dynamic {
		d, err := rsse.OpenDynamic(dir, rsse.LogarithmicBRC, bits, 2, dynOptions()...)
		must(t, err)
		return d
	}
	serve := func(d *rsse.Dynamic) (*rsse.RemoteDynamic, func()) {
		reg := rsse.NewRegistry()
		if err := reg.RegisterWritable(rsse.DefaultDynamicName, d); err != nil {
			t.Fatal(err)
		}
		srv := rsse.NewServer(reg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		must(t, err)
		go func() { _ = srv.Serve(l) }()
		remote, err := rsse.DialDynamic("tcp", l.Addr().String(), rsse.DefaultDynamicName)
		must(t, err)
		return remote, func() { remote.Close(); l.Close() }
	}

	d := open()
	remote, stop := serve(d)
	if err := remote.Insert(1, 100, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := remote.Insert(2, 200, []byte("bob")); err != nil {
		t.Fatal(err)
	}
	if err := remote.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := remote.Modify(1, 100, 150, []byte("alice-v2")); err != nil {
		t.Fatal(err)
	}
	if err := remote.Delete(2, 200); err != nil {
		t.Fatal(err)
	}
	// The acknowledged-but-unflushed updates must already be durable:
	// the WAL on disk holds both records BEFORE any flush.
	recs := replayWALFile(t, filepath.Join(dir, "wal.log"))
	if len(recs) != 2 {
		t.Fatalf("WAL holds %d records after 2 acknowledged updates, want 2", len(recs))
	}
	if recs[0].Kind != wal.Modify || recs[1].Kind != wal.Delete {
		t.Fatalf("WAL records out of order: %v, %v", recs[0].Kind, recs[1].Kind)
	}
	stop()        // crash: the server process dies...
	rsse.Crash(d) // ...taking the un-Closed store with it

	d2 := open()
	remote2, stop2 := serve(d2)
	defer stop2()
	if err := remote2.Flush(); err != nil {
		t.Fatal(err)
	}
	tuples, err := remote2.QueryContext(context.Background(), rsse.Range{Lo: 0, Hi: (1 << bits) - 1})
	must(t, err)
	if len(tuples) != 1 {
		t.Fatalf("recovered store holds %d live tuples, want 1: %+v", len(tuples), tuples)
	}
	if tuples[0].ID != 1 || tuples[0].Value != 150 || string(tuples[0].Payload) != "alice-v2" {
		t.Fatalf("recovered tuple %+v", tuples[0])
	}
	d2.Close()
}

// replayWALFile decodes a WAL file's intact records.
func replayWALFile(t *testing.T, path string) []wal.Record {
	t.Helper()
	f, err := os.Open(path)
	must(t, err)
	defer f.Close()
	recs, _, _, err := wal.Replay(f)
	must(t, err)
	return recs
}
