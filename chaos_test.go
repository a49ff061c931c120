package rsse_test

// Chaos tests beyond the conformance harness's faulted cells: a
// cluster with a permanently dead shard, and remote updates into a
// durable store over connections a seeded fault plan keeps killing.
// Fault schedules are deterministic from a seed (internal/fault), so a
// failure here replays exactly.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"rsse"
	"rsse/internal/fault"
	"rsse/internal/wal"
)

// TestClusterDeadShardDegradation walks the degradation ladder: with
// WithRetry a permanently dead shard no longer fails DialCluster
// (dialing is lazy); under WithPartialResults its queries degrade to
// typed partial results carrying both ErrPartialResult and ErrConnDead;
// ranges that avoid the dead shard stay complete; and only a range
// served exclusively by the dead shard fails outright.
func TestClusterDeadShardDegradation(t *testing.T) {
	tuples := genTuples(300, 12, 51)
	built, err := rsse.BuildCluster(rsse.LogarithmicBRC, 12, 4, tuples,
		rsse.WithSeed(8))
	must(t, err)
	man := serveCluster(t, built, "dd", 1)

	// Point shard 2 at an address nothing listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	deadAddr := l.Addr().String()
	l.Close()
	man.Shards = append([]rsse.ClusterShardInfo(nil), man.Shards...)
	man.Shards[2].Addr = deadAddr

	retry := rsse.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 9}

	// Without retry, the dead address fails eagerly at dial time
	// (TestClusterPartialResults pins that). With retry, dialing is lazy
	// and must succeed.
	dialed, err := rsse.DialCluster("tcp", "", man, built.MasterKey(),
		rsse.WithSeed(10),
		rsse.WithRetry(retry),
		rsse.WithPartialResults())
	if err != nil {
		t.Fatalf("lazy dial with a dead shard failed: %v", err)
	}
	defer dialed.Close()

	deadRange := built.ShardRange(2)

	// Full domain: the query succeeds, covers every live slice, and the
	// gap is attributable — typed as both partial and conn-dead.
	full := rsse.Range{Lo: 0, Hi: (1 << 12) - 1}
	res, err := dialed.QueryBatchContext(context.Background(), []rsse.Range{full})
	if err != nil {
		t.Fatalf("partial query failed outright: %v", err)
	}
	var live []rsse.ID
	for _, tup := range tuples {
		if !deadRange.Contains(tup.Value) {
			live = append(live, tup.ID)
		}
	}
	if !equal(sorted(res.Results[0].Matches), sorted(live)) {
		t.Fatalf("partial result wrong: %d matches, want %d", len(res.Results[0].Matches), len(live))
	}
	pe := res.PartialErr()
	if !errors.Is(pe, rsse.ErrPartialResult) {
		t.Fatalf("PartialErr = %v, want ErrPartialResult", pe)
	}
	if !errors.Is(pe, rsse.ErrConnDead) {
		t.Fatalf("PartialErr = %v, want it to wrap ErrConnDead", pe)
	}

	// A range that avoids the dead shard is complete and exact.
	liveRange := built.ShardRange(0)
	res, err = dialed.QueryBatchContext(context.Background(), []rsse.Range{liveRange})
	if err != nil {
		t.Fatalf("live-shard query: %v", err)
	}
	if pe := res.PartialErr(); pe != nil {
		t.Fatalf("live-shard query reported partial: %v", pe)
	}
	if !equal(sorted(res.Results[0].Matches), oracle(tuples, liveRange)) {
		t.Fatal("live-shard query diverged")
	}

	// A range only the dead shard serves: every intersected shard failed,
	// so the query itself fails, typed.
	if _, err := dialed.QueryBatchContext(context.Background(), []rsse.Range{{Lo: deadRange.Lo, Hi: deadRange.Lo}}); err == nil {
		t.Fatal("query served only by the dead shard succeeded")
	} else if !errors.Is(err, rsse.ErrConnDead) {
		t.Fatalf("dead-only query error = %v, want ErrConnDead", err)
	}

	// Batched scatter over mixed ranges degrades the same way.
	bres, err := dialed.QueryBatchContext(context.Background(), []rsse.Range{full, liveRange})
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
	must(t, err)
	defer d.Close()

	reg := rsse.NewRegistry()
	if err := reg.RegisterWritable(rsse.DefaultDynamicName, d); err != nil {
		t.Fatal(err)
	}
	srv := rsse.NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
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
	must(t, err)

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
	must(t, err)
	defer clean.Close()
	if err := clean.Flush(); err != nil {
		t.Fatal(err)
	}
	tuples, err := clean.QueryContext(context.Background(), rsse.Range{Lo: 0, Hi: (1 << bits) - 1})
	must(t, err)
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
