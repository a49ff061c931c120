package shard

import (
	"context"
	"errors"
	mrand "math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/prf"
)

func dom(t *testing.T, bits uint8) cover.Domain {
	t.Helper()
	d, err := cover.NewDomain(bits)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEqualWidthTilesDomain(t *testing.T) {
	for _, bits := range []uint8{1, 4, 10, 20} {
		d := dom(t, bits)
		for _, k := range []int{1, 2, 3, 4, 7} {
			if uint64(k) > d.Size() {
				continue
			}
			m, err := EqualWidth(d, k)
			if err != nil {
				t.Fatalf("bits=%d k=%d: %v", bits, k, err)
			}
			if m.K() != k {
				t.Fatalf("bits=%d k=%d: K=%d", bits, k, m.K())
			}
			// Shards tile the domain contiguously from 0 to size-1.
			want := core.Value(0)
			for i := 0; i < k; i++ {
				r := m.ShardRange(i)
				if r.Lo != want {
					t.Fatalf("bits=%d k=%d shard %d: Lo=%d want %d", bits, k, i, r.Lo, want)
				}
				if r.Hi < r.Lo {
					t.Fatalf("bits=%d k=%d shard %d: empty range %v", bits, k, i, r)
				}
				want = r.Hi + 1
			}
			if want != d.Size() {
				t.Fatalf("bits=%d k=%d: shards end at %d, domain size %d", bits, k, want, d.Size())
			}
			// Widths are near-equal: max-min <= 1.
			minW, maxW := uint64(1)<<62, uint64(0)
			for i := 0; i < k; i++ {
				w := m.ShardRange(i).Size()
				if w < minW {
					minW = w
				}
				if w > maxW {
					maxW = w
				}
			}
			if maxW-minW > 1 {
				t.Fatalf("bits=%d k=%d: widths %d..%d", bits, k, minW, maxW)
			}
		}
	}
	if _, err := EqualWidth(dom(t, 2), 5); err == nil {
		t.Fatal("k > domain size accepted")
	}
	if _, err := EqualWidth(dom(t, 2), 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
}

func TestOwnerMatchesShardRange(t *testing.T) {
	d := dom(t, 12)
	rnd := mrand.New(mrand.NewSource(1))
	for _, k := range []int{1, 2, 5, 16} {
		m, _ := EqualWidth(d, k)
		for trial := 0; trial < 500; trial++ {
			v := rnd.Uint64() % d.Size()
			s := m.Owner(v)
			if r := m.ShardRange(s); !r.Contains(v) {
				t.Fatalf("k=%d: Owner(%d)=%d but shard range %v", k, v, s, r)
			}
		}
		// Boundary values.
		for i := 0; i < k; i++ {
			r := m.ShardRange(i)
			if m.Owner(r.Lo) != i || m.Owner(r.Hi) != i {
				t.Fatalf("k=%d shard %d: boundary ownership wrong", k, i)
			}
		}
	}
}

func TestSplitCoversQueryExactly(t *testing.T) {
	d := dom(t, 10)
	rnd := mrand.New(mrand.NewSource(2))
	for _, k := range []int{1, 3, 8} {
		m, _ := EqualWidth(d, k)
		for trial := 0; trial < 300; trial++ {
			lo := rnd.Uint64() % d.Size()
			hi := lo + rnd.Uint64()%(d.Size()-lo)
			q := core.Range{Lo: lo, Hi: hi}
			tasks := m.SplitBatch([]core.Range{q})
			if len(tasks) == 0 {
				t.Fatalf("k=%d: no tasks for %v", k, q)
			}
			// Sub-ranges tile q exactly, each inside its shard.
			want := q.Lo
			for _, task := range tasks {
				if len(task.Ranges) != 1 || len(task.Sources) != 1 || task.Sources[0] != 0 {
					t.Fatalf("k=%d q=%v: task %+v is not one slice of range 0", k, q, task)
				}
				r := task.Ranges[0]
				if r.Lo != want {
					t.Fatalf("k=%d q=%v: gap before %v", k, q, r)
				}
				sr := m.ShardRange(task.Shard)
				if r.Lo < sr.Lo || r.Hi > sr.Hi {
					t.Fatalf("k=%d: task %v outside shard range %v", k, task, sr)
				}
				want = r.Hi + 1
			}
			if want != q.Hi+1 {
				t.Fatalf("k=%d q=%v: tasks end at %d", k, q, want-1)
			}
		}
		// A degenerate single-value query yields exactly one task.
		if got := m.SplitBatch([]core.Range{{Lo: 17, Hi: 17}}); len(got) != 1 {
			t.Fatalf("k=%d: single-value query split into %d tasks", k, len(got))
		}
	}
}

func TestQuantilesBalancesSkew(t *testing.T) {
	d := dom(t, 16)
	// Heavily skewed data: 90% of values in the bottom 1% of the domain.
	rnd := mrand.New(mrand.NewSource(3))
	values := make([]core.Value, 10000)
	for i := range values {
		if i%10 != 0 {
			values[i] = rnd.Uint64() % (d.Size() / 100)
		} else {
			values[i] = rnd.Uint64() % d.Size()
		}
	}
	m, err := Quantiles(d, 4, values)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() < 2 {
		t.Fatalf("quantile split collapsed to %d shards", m.K())
	}
	counts := make([]int, m.K())
	for _, v := range values {
		counts[m.Owner(v)]++
	}
	for i, c := range counts {
		if c > 2*len(values)/m.K() {
			t.Fatalf("shard %d holds %d of %d tuples despite quantile split (counts %v)", i, c, len(values), counts)
		}
	}
	// Equal-width on the same data concentrates nearly everything in
	// shard 0 — the imbalance quantile splitting exists to fix.
	ew, _ := EqualWidth(d, 4)
	ewCounts := make([]int, 4)
	for _, v := range values {
		ewCounts[ew.Owner(v)]++
	}
	if ewCounts[0] < 8*len(values)/10 {
		t.Fatalf("test premise broken: equal-width counts %v not skewed", ewCounts)
	}
}

func TestQuantilesCollapsesTies(t *testing.T) {
	d := dom(t, 8)
	values := make([]core.Value, 100) // all zero
	m, err := Quantiles(d, 4, values)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 1 {
		t.Fatalf("all-equal values split into %d shards", m.K())
	}
}

func TestFromStartsValidation(t *testing.T) {
	d := dom(t, 8)
	if _, err := FromStarts(d, nil); err == nil {
		t.Fatal("empty starts accepted")
	}
	if _, err := FromStarts(d, []core.Value{1, 5}); err == nil {
		t.Fatal("nonzero first start accepted")
	}
	if _, err := FromStarts(d, []core.Value{0, 5, 5}); err == nil {
		t.Fatal("non-increasing starts accepted")
	}
	if _, err := FromStarts(d, []core.Value{0, 300}); err == nil {
		t.Fatal("out-of-domain start accepted")
	}
	m, err := FromStarts(d, []core.Value{0, 100, 200})
	if err != nil || m.K() != 3 {
		t.Fatalf("valid starts rejected: %v", err)
	}
	if r := m.ShardRange(2); r.Hi != d.Size()-1 {
		t.Fatalf("last shard ends at %d", r.Hi)
	}
}

func TestExecutorRunsAllTasks(t *testing.T) {
	const n = 20
	var ran atomic.Int32
	out, err := Run(context.Background(), FailFast, n,
		func(ctx context.Context, i int) (*core.Result, error) {
			ran.Add(1)
			return &core.Result{Matches: []core.ID{core.ID(i)}}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if int(ran.Load()) != n || len(out) != n {
		t.Fatalf("ran %d of %d", ran.Load(), n)
	}
	for i, o := range out {
		if o.Res == nil || o.Res.Matches[0] != core.ID(i) {
			t.Fatalf("outcome %d out of order: %+v", i, o)
		}
	}
}

// TestExecutorFailFastCancels: the first failure cancels the context
// every other sub-query runs under, and Run reports that failure.
func TestExecutorFailFastCancels(t *testing.T) {
	boom := errors.New("boom")
	out, err := Run(context.Background(), FailFast, 50,
		func(ctx context.Context, i int) (*core.Result, error) {
			if i == 0 {
				return nil, boom
			}
			// Every other part waits for the cancellation (bounded, so a
			// missing cancel fails the test instead of hanging it).
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return &core.Result{}, nil
			}
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	for i, o := range out[1:] {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("outcome %d: err = %v, want the cancellation", i+1, o.Err)
		}
	}
}

func TestExecutorPartialCollects(t *testing.T) {
	boom := errors.New("boom")
	out, err := Run(context.Background(), Partial, 3,
		func(ctx context.Context, i int) (*core.Result, error) {
			if i == 1 {
				return nil, boom
			}
			return &core.Result{Matches: []core.ID{core.ID(i)}}, nil
		})
	if err != nil {
		t.Fatalf("partial run failed: %v", err)
	}
	if out[0].Err != nil || out[2].Err != nil || !errors.Is(out[1].Err, boom) {
		t.Fatalf("outcomes %+v", out)
	}
	merged := &core.Result{}
	for _, o := range out {
		if o.Res != nil {
			merged.Matches = append(merged.Matches, o.Res.Matches...)
			merged.Stats.Add(o.Res.Stats)
		}
	}
	if len(merged.Matches) != 2 {
		t.Fatalf("merged matches %v", merged.Matches)
	}
	// All parts failing is an error even under Partial.
	_, err = Run(context.Background(), Partial, 3,
		func(ctx context.Context, i int) (*core.Result, error) { return nil, boom })
	if !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("all-failed error = %v", err)
	}
}

func TestExecutorHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, FailFast, 2,
		func(ctx context.Context, i int) (*core.Result, error) { return &core.Result{}, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestExecutorAbandonsHungTask: an expired caller context must free the
// caller promptly even when a sub-query is stuck inside run (network
// I/O that ignores cancellation); the straggler drains in the
// background.
func TestExecutorAbandonsHungTask(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	block := make(chan struct{})
	defer close(block) // release the straggler goroutine at test end
	start := time.Now()
	_, err := Run(ctx, FailFast, 2,
		func(ctx context.Context, i int) (*core.Result, error) {
			if i == 0 {
				<-block
			}
			return &core.Result{}, nil
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("Run pinned the caller for %v behind a hung sub-query", waited)
	}
}

func TestClientKeyDerivation(t *testing.T) {
	master, err := prf.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	k0, k0b := ClientKey(master, 0), ClientKey(master, 0)
	k1 := ClientKey(master, 1)
	if len(k0) != 32 {
		t.Fatalf("key length %d", len(k0))
	}
	if string(k0) != string(k0b) {
		t.Fatal("derivation not deterministic")
	}
	if string(k0) == string(k1) {
		t.Fatal("distinct shards share a key")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	d := dom(t, 16)
	m, _ := EqualWidth(d, 4)
	man := NewManifest(core.LogarithmicBRC, m, "users")
	if len(man.Shards) != 4 || man.Shards[2].Name != "users-shard-2" {
		t.Fatalf("manifest %+v", man)
	}
	path := filepath.Join(t.TempDir(), "users.cluster.json")
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := got.KindValue()
	if err != nil || kind != core.LogarithmicBRC {
		t.Fatalf("kind %v %v", kind, err)
	}
	gotMap, err := got.MapValue()
	if err != nil {
		t.Fatal(err)
	}
	if gotMap.K() != 4 {
		t.Fatalf("round-tripped K = %d", gotMap.K())
	}
	for i := 0; i < 4; i++ {
		if gotMap.ShardRange(i) != m.ShardRange(i) {
			t.Fatalf("shard %d range drifted", i)
		}
	}
	// A manifest whose intervals do not tile the domain is rejected.
	bad := man
	bad.Shards = append([]ShardInfo(nil), man.Shards...)
	bad.Shards[1].Hi += 5
	if _, err := bad.MapValue(); err == nil {
		t.Fatal("non-tiling manifest accepted")
	}
}

func TestManifestShardNames(t *testing.T) {
	for i, want := range []string{"t-shard-0", "t-shard-1"} {
		if got := ShardName("t", i); got != want {
			t.Fatalf("ShardName = %q, want %q", got, want)
		}
	}
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing manifest accepted")
	}
}
