package rsse_test

// The chaos-differential suite: every scheme kind, queried through
// fault-injected connections (and a fault-injected storage backend on
// the server), must return results byte-identical to a fault-free
// oracle — or fail with a typed, attributable error. Fault schedules
// are deterministic from a seed (internal/fault), so a failure here
// replays exactly. The transport-level kill-point sweep and the
// mid-stream batch death test live in internal/transport; these tests
// drive the same machinery end to end through the public API.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"rsse"
	"rsse/internal/fault"
	"rsse/internal/storage"
	"rsse/internal/wal"
)

// chaosRetry is the retry policy the chaos tests dial with: enough
// attempts to ride out the scheduled faults, a per-attempt deadline
// that converts a black-holed connection into a retryable timeout, and
// a seeded jitter source so the whole run is deterministic.
func chaosRetry() rsse.RetryPolicy {
	return rsse.RetryPolicy{
		MaxAttempts: 10,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		// Must be long enough that no legitimate op (a Constant-scheme
		// batch over delay-injected storage) ever hits it, and every
		// scheduled black hole costs one full OpTimeout of wall clock.
		OpTimeout: 2 * time.Second,
		Seed:      11,
	}
}

// chaosPlan is the scheduled part of the fault schedule every kind runs
// under: the first connection's write side dies mid-request, the
// second's read side truncates a response mid-frame, the third black-
// holes its reads (recovered only by the per-attempt deadline). On top,
// seeded background noise closes ~2% of reads/writes and delays 20%.
func chaosPlan(seed int64) fault.Plan {
	return fault.Plan{
		Seed: seed,
		Rules: []fault.Rule{
			{Conn: 0, Side: fault.Write, Action: fault.Close, AfterCalls: 3},
			{Conn: 1, Side: fault.Read, Action: fault.Truncate, AtByte: 200},
			{Conn: 2, Side: fault.Read, Action: fault.BlackHole, AfterCalls: 2},
		},
		CloseRate:  0.02,
		DelayRate:  0.2,
		MaxDelayMS: 1,
	}
}

// chaosQueries is the query mix: the full domain plus random ranges.
func chaosQueries(n int, size uint64, seed int64) []rsse.Range {
	rnd := mrand.New(mrand.NewSource(seed))
	out := []rsse.Range{{Lo: 0, Hi: size - 1}}
	for len(out) < n {
		lo := rnd.Uint64() % size
		out = append(out, rsse.Range{Lo: lo, Hi: lo + rnd.Uint64()%(size-lo)})
	}
	return out
}

// serveIndex registers one index under name and serves it on loopback.
func serveIndex(t *testing.T, name string, index *rsse.Index) string {
	t.Helper()
	reg := rsse.NewRegistry()
	if err := reg.Register(name, index); err != nil {
		t.Fatal(err)
	}
	srv := rsse.NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		l.Close()
	})
	return l.Addr().String()
}

// TestChaosDifferentialRemote: for every scheme kind, a resilient
// remote client under a seeded fault schedule (flaky connections AND a
// delay-injecting storage backend behind the served index) must return
// results element-for-element identical — raw server ids included — to
// an identically-keyed local client querying the same index directly.
func TestChaosDifferentialRemote(t *testing.T) {
	for _, kind := range rsse.Kinds() {
		t.Run(fmt.Sprintf("%v", kind), func(t *testing.T) {
			t.Parallel()
			bits := uint8(10)
			if kind == rsse.Quadratic {
				bits = 6 // keep the naive baseline tractable
			}
			key := bytes.Repeat([]byte{9}, 32)
			opts := func(seed int64) []rsse.Option {
				return []rsse.Option{
					rsse.WithSeed(seed),
					rsse.WithMasterKey(key),
					rsse.AllowIntersectingQueries(),
				}
			}
			tuples := genTuples(200, bits, 7)

			// The served index sits on a fault-wrapped storage engine:
			// deterministic lookup delays widen the in-flight window the
			// connection faults strike into, without changing any byte of
			// any response.
			eng := fault.Engine{Inner: storage.Map{}, Plan: fault.BackendPlan{
				Seed: 1, DelayEvery: 64, DelayMS: 1,
			}}
			builder, err := rsse.NewClient(kind, bits,
				append(opts(8), rsse.WithStorageEngine(eng))...)
			if err != nil {
				t.Fatal(err)
			}
			index, err := builder.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			addr := serveIndex(t, "chaos", index)

			inj := fault.New(chaosPlan(40 + int64(kind)))
			remote, err := rsse.DialIndexWith("tcp", addr, "chaos",
				rsse.WithConnWrapper(inj.Wrap),
				rsse.WithRetry(chaosRetry()))
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()

			// Oracle and chaos clients share the seed: the cover-token
			// shuffle draws from it, and element-wise Raw comparison needs
			// both sides to emit tokens in the same order. They run the
			// same query sequence, so their rngs stay in lockstep.
			localClient, err := rsse.NewClient(kind, bits, opts(3)...)
			if err != nil {
				t.Fatal(err)
			}
			remoteClient, err := rsse.NewClient(kind, bits, opts(3)...)
			if err != nil {
				t.Fatal(err)
			}

			queries := chaosQueries(24, uint64(1)<<bits, 13)
			for _, q := range queries {
				want, err := localClient.Query(index, q)
				if err != nil {
					t.Fatalf("oracle %v: %v", q, err)
				}
				got, err := remoteClient.QueryRemote(remote, q)
				if err != nil {
					t.Fatalf("chaos remote %v: %v", q, err)
				}
				if !equal(got.Raw, want.Raw) {
					t.Fatalf("%v: raw ids diverged under faults: %d vs %d", q, len(got.Raw), len(want.Raw))
				}
				if !equal(sorted(got.Matches), oracle(tuples, q)) {
					t.Fatalf("%v: matches diverged from plaintext oracle", q)
				}
			}

			// Batched queries ride the same retry machinery.
			batch := queries[:8]
			wantB, err := localClient.QueryBatch(index, batch)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := remoteClient.QueryBatchRemote(remote, batch)
			if err != nil {
				t.Fatalf("chaos batch: %v", err)
			}
			for i := range batch {
				if !equal(gotB.Results[i].Raw, wantB.Results[i].Raw) {
					t.Fatalf("batch range %d diverged under faults", i)
				}
			}

			// Point fetches too.
			for _, id := range []rsse.ID{1, 50, 200} {
				tup, err := remoteClient.FetchTupleRemote(remote, id)
				if err != nil {
					t.Fatalf("fetch %d: %v", id, err)
				}
				if tup.ID != id || tup.Value != tuples[id-1].Value {
					t.Fatalf("fetch %d: got %+v", id, tup)
				}
			}

			// The schedule must actually have bitten: at least one
			// connection was killed and replaced, or this test proved
			// nothing about resilience.
			st := inj.Stats()
			if st.Closes+st.Truncations+st.BlackHoles == 0 {
				t.Fatalf("fault plan never fired: %+v", st)
			}
			if st.Conns < 2 {
				t.Fatalf("no redial happened (%d conns); faults were not exercised", st.Conns)
			}
		})
	}
}

// TestChaosDifferentialCluster: a dialed cluster under per-connection
// fault injection plus shard retry must stay element-for-element
// identical to a fault-free dialed cluster over the same served shards
// — and report every result complete.
func TestChaosDifferentialCluster(t *testing.T) {
	for _, kind := range rsse.Kinds() {
		t.Run(fmt.Sprintf("%v", kind), func(t *testing.T) {
			t.Parallel()
			bits := uint8(12)
			n := 240
			if kind == rsse.Quadratic {
				bits, n = 8, 120
			}
			shardOpts := func(seed int64) rsse.ClusterOption {
				return rsse.WithShardOptions(rsse.WithSeed(seed), rsse.AllowIntersectingQueries())
			}
			tuples := genTuples(n, bits, 10+int64(kind))
			built, err := rsse.BuildCluster(kind, bits, 3, tuples, shardOpts(5))
			if err != nil {
				t.Fatal(err)
			}
			man := serveCluster(t, built, "cx", 2)

			clean, err := rsse.DialCluster("tcp", "", man, built.MasterKey(), shardOpts(6))
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()

			inj := fault.New(chaosPlan(60 + int64(kind)))
			chaos, err := rsse.DialCluster("tcp", "", man, built.MasterKey(), shardOpts(7),
				rsse.WithShardConnWrapper(inj.Wrap),
				rsse.WithShardRetry(chaosRetry()))
			if err != nil {
				t.Fatal(err)
			}
			defer chaos.Close()

			for _, q := range clusterRanges(12, uint64(1)<<bits, built, 17+int64(kind)) {
				want, err := clean.Query(q)
				if err != nil {
					t.Fatalf("clean %v: %v", q, err)
				}
				got, err := chaos.Query(q)
				if err != nil {
					t.Fatalf("chaos %v: %v", q, err)
				}
				if !got.Complete() {
					t.Fatalf("%v: chaos result incomplete: %v", q, got.PartialErr())
				}
				if !equal(sorted(got.Matches), sorted(want.Matches)) {
					t.Fatalf("%v: chaos cluster diverged", q)
				}
				if !equal(sorted(got.Matches), oracle(tuples, q)) {
					t.Fatalf("%v: chaos cluster disagrees with plaintext oracle", q)
				}
			}

			// One batched scatter through the same fault schedule.
			batch := clusterRanges(6, uint64(1)<<bits, built, 23)
			wantB, err := clean.QueryBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := chaos.QueryBatch(batch)
			if err != nil {
				t.Fatalf("chaos batch: %v", err)
			}
			if err := gotB.PartialErr(); err != nil {
				t.Fatalf("chaos batch incomplete: %v", err)
			}
			for i := range batch {
				if !equal(sorted(gotB.Results[i].Matches), sorted(wantB.Results[i].Matches)) {
					t.Fatalf("batch range %d diverged under faults", i)
				}
			}

			if st := inj.Stats(); st.Conns < 2 {
				t.Fatalf("no redial happened (%d conns); faults were not exercised", st.Conns)
			}
		})
	}
}

// TestClusterDeadShardDegradation walks the degradation ladder: with
// WithShardRetry a permanently dead shard no longer fails DialCluster
// (dialing is lazy); under WithPartialResults its queries degrade to
// typed partial results carrying both ErrPartialResult and ErrConnDead;
// ranges that avoid the dead shard stay complete; and only a range
// served exclusively by the dead shard fails outright.
func TestClusterDeadShardDegradation(t *testing.T) {
	tuples := genTuples(300, 12, 51)
	built, err := rsse.BuildCluster(rsse.LogarithmicBRC, 12, 4, tuples,
		rsse.WithShardOptions(rsse.WithSeed(8)))
	if err != nil {
		t.Fatal(err)
	}
	man := serveCluster(t, built, "dd", 1)

	// Point shard 2 at an address nothing listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()
	man.Shards = append([]rsse.ClusterShardInfo(nil), man.Shards...)
	man.Shards[2].Addr = deadAddr

	retry := rsse.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 9}

	// Without retry, the dead address fails eagerly at dial time
	// (TestClusterPartialResults pins that). With retry, dialing is lazy
	// and must succeed.
	dialed, err := rsse.DialCluster("tcp", "", man, built.MasterKey(),
		rsse.WithShardOptions(rsse.WithSeed(10)),
		rsse.WithShardRetry(retry),
		rsse.WithPartialResults())
	if err != nil {
		t.Fatalf("lazy dial with a dead shard failed: %v", err)
	}
	defer dialed.Close()

	deadRange := built.ShardRange(2)

	// Full domain: the query succeeds, covers every live slice, and the
	// gap is attributable — typed as both partial and conn-dead.
	full := rsse.Range{Lo: 0, Hi: (1 << 12) - 1}
	res, err := dialed.Query(full)
	if err != nil {
		t.Fatalf("partial query failed outright: %v", err)
	}
	var live []rsse.ID
	for _, tup := range tuples {
		if !deadRange.Contains(tup.Value) {
			live = append(live, tup.ID)
		}
	}
	if !equal(sorted(res.Matches), sorted(live)) {
		t.Fatalf("partial result wrong: %d matches, want %d", len(res.Matches), len(live))
	}
	pe := res.PartialErr()
	if !errors.Is(pe, rsse.ErrPartialResult) {
		t.Fatalf("PartialErr = %v, want ErrPartialResult", pe)
	}
	if !errors.Is(pe, rsse.ErrConnDead) {
		t.Fatalf("PartialErr = %v, want it to wrap ErrConnDead", pe)
	}
	if res.Complete() {
		t.Fatal("result with a dead shard claims completeness")
	}

	// A range that avoids the dead shard is complete and exact.
	liveRange := built.ShardRange(0)
	res, err = dialed.Query(liveRange)
	if err != nil {
		t.Fatalf("live-shard query: %v", err)
	}
	if !res.Complete() {
		t.Fatalf("live-shard query reported partial: %v", res.PartialErr())
	}
	if !equal(sorted(res.Matches), oracle(tuples, liveRange)) {
		t.Fatal("live-shard query diverged")
	}

	// A range only the dead shard serves: every intersected shard failed,
	// so the query itself fails, typed.
	if _, err := dialed.Query(rsse.Range{Lo: deadRange.Lo, Hi: deadRange.Lo}); err == nil {
		t.Fatal("query served only by the dead shard succeeded")
	} else if !errors.Is(err, rsse.ErrConnDead) {
		t.Fatalf("dead-only query error = %v, want ErrConnDead", err)
	}

	// Batched scatter over mixed ranges degrades the same way.
	bres, err := dialed.QueryBatch([]rsse.Range{full, liveRange})
	if err != nil {
		t.Fatalf("partial batch failed outright: %v", err)
	}
	if bpe := bres.PartialErr(); !errors.Is(bpe, rsse.ErrPartialResult) || !errors.Is(bpe, rsse.ErrConnDead) {
		t.Fatalf("batch PartialErr = %v", bpe)
	}
	if !equal(sorted(bres.Results[1].Matches), oracle(tuples, liveRange)) {
		t.Fatal("live range inside a partial batch diverged")
	}
}

// TestDynamicChaosAtMostOnce drives remote updates into a durable
// Dynamic store over connections a seeded fault plan keeps killing.
// The client NEVER re-sends a failed update — an errored ack leaves the
// update's fate unknown, and retrying it could apply it twice. The WAL
// is then the ground truth: every acknowledged insert must appear
// exactly once, NO insert may appear twice (acked or not), and the
// sequence chain must verify — wal.Replay rejects a broken chain as
// corruption.
func TestDynamicChaosAtMostOnce(t *testing.T) {
	dir := t.TempDir()
	const bits = 10
	d, err := rsse.OpenDynamic(dir, rsse.LogarithmicBRC, bits, 4, dynOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	reg := rsse.NewRegistry()
	if err := reg.RegisterWritable(rsse.DefaultDynamicName, d); err != nil {
		t.Fatal(err)
	}
	srv := rsse.NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		l.Close()
	})

	// Every connection's write side dies after its 7th write call, so
	// the run is forced through several mid-update connection deaths.
	inj := fault.New(fault.Plan{Seed: 77, Rules: []fault.Rule{
		{Conn: -1, Side: fault.Write, Action: fault.Close, AfterCalls: 7},
	}})
	dial := func() (*rsse.RemoteDynamic, error) {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		return rsse.NewRemoteDynamic(inj.Wrap(nc), rsse.DefaultDynamicName), nil
	}
	remote, err := dial()
	if err != nil {
		t.Fatal(err)
	}

	const total = 40
	var acked []uint64
	reconnects := 0
	for id := uint64(1); id <= total; id++ {
		if err := remote.Insert(id, id%(1<<bits), []byte(fmt.Sprintf("p-%d", id))); err != nil {
			// The insert's fate is unknown: the request may have reached
			// the WAL before the connection died, or not. At-most-once
			// means we must NOT re-send it — reconnect and move on to the
			// next unique update.
			reconnects++
			remote.Close()
			if remote, err = dial(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		acked = append(acked, id)
	}
	remote.Close()
	if reconnects == 0 {
		t.Fatal("fault plan never killed a connection; nothing was exercised")
	}
	if len(acked) == 0 {
		t.Fatal("no insert was ever acknowledged")
	}

	// Ground truth, before any flush: replay the WAL. Replay itself
	// verifies checksums and the sequence chain (a break is ErrCorruptWAL,
	// which replayWALFile fails on).
	recs := replayWALFile(t, filepath.Join(dir, "wal.log"))
	count := make(map[uint64]int)
	for _, r := range recs {
		if r.Kind != wal.Insert {
			t.Fatalf("unexpected WAL record kind %v", r.Kind)
		}
		count[r.ID]++
	}
	for _, id := range acked {
		if count[id] != 1 {
			t.Fatalf("acknowledged insert %d appears %d times in the WAL, want exactly 1", id, count[id])
		}
	}
	for id, n := range count {
		if n != 1 {
			t.Fatalf("insert %d logged %d times — an update applied twice", id, n)
		}
		if id < 1 || id > total {
			t.Fatalf("WAL holds an id %d the client never sent", id)
		}
	}

	// Read back over a clean connection: the live tuples are exactly the
	// WAL's inserts — acked ones all present, un-acked ones present only
	// if their frame made it into the log before the cut.
	clean, err := rsse.DialDynamic("tcp", l.Addr().String(), rsse.DefaultDynamicName)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if err := clean.Flush(); err != nil {
		t.Fatal(err)
	}
	tuples, err := clean.Query(rsse.Range{Lo: 0, Hi: (1 << bits) - 1})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]bool, len(tuples))
	for _, tup := range tuples {
		got[tup.ID] = true
	}
	if len(got) != len(count) {
		t.Fatalf("%d live tuples, WAL logged %d distinct inserts", len(got), len(count))
	}
	for id := range count {
		if !got[id] {
			t.Fatalf("logged insert %d missing from the store", id)
		}
	}
	if st := inj.Stats(); st.Closes == 0 {
		t.Fatalf("injector reports no closes: %+v", st)
	}
}
