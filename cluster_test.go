package rsse_test

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"rsse"
	"rsse/internal/dataset"
	"rsse/internal/race"
)

// TestClusterShardIndependence checks the leakage-scope claim mechanics:
// shards are separate indexes under distinct derived keys, and a range
// inside one shard touches exactly one shard.
func TestClusterShardIndependence(t *testing.T) {
	tuples := genTuples(200, 10, 31)
	cluster, err := rsse.BuildCluster(rsse.LogarithmicBRC, 10, 4, tuples,
		rsse.WithSeed(1))
	must(t, err)
	stats := cluster.Stats()
	if len(stats) != 4 {
		t.Fatalf("Stats len %d", len(stats))
	}
	total := 0
	for i, s := range stats {
		if s.Shard != i || s.Range != cluster.ShardRange(i) {
			t.Fatalf("stat %d: %+v", i, s)
		}
		total += s.Stats.N
	}
	if total != len(tuples) {
		t.Fatalf("shard tuple counts sum to %d, want %d", total, len(tuples))
	}
	// One-shard query → exactly one per-shard entry, on the owner.
	sr := cluster.ShardRange(2)
	res, err := cluster.QueryBatchContext(context.Background(), []rsse.Range{{Lo: sr.Lo, Hi: sr.Lo}})
	must(t, err)
	if len(res.Shards) != 1 || res.Shards[0].Shard != 2 {
		t.Fatalf("single-shard query touched %+v", res.Shards)
	}
	if cluster.ShardOf(sr.Lo) != 2 {
		t.Fatalf("ShardOf(%d) = %d", sr.Lo, cluster.ShardOf(sr.Lo))
	}
	// A shard client cannot decrypt another shard's tuples: keys differ.
	k0 := cluster.ShardIndex(0)
	other, err := rsse.NewClient(rsse.LogarithmicBRC, 10,
		rsse.WithMasterKey(cluster.MasterKey()))
	must(t, err)
	if _, err := other.QueryContext(context.Background(), k0, rsse.Range{Lo: 0, Hi: 10}); err == nil {
		// The cluster master key must not be a shard key directly. A
		// query under it may error or return garbage, but must not
		// silently succeed with correct plaintext matches.
		t.Log("cluster-master query succeeded (acceptable only if matches are wrong)")
	}
}

func TestClusterQuantileSplit(t *testing.T) {
	// Zipf-skewed data: quantile splitting must spread tuples while
	// staying differentially correct.
	tuples := dataset.ZipfPool(4000, 14, 200, 1.2, 5)
	cluster, err := rsse.BuildCluster(rsse.LogarithmicSRCi, 14, 4, tuples,
		rsse.WithQuantileSplit(), rsse.WithSeed(3))
	must(t, err)
	if cluster.Shards() < 2 {
		t.Fatalf("quantile split collapsed to %d shards", cluster.Shards())
	}
	for _, s := range cluster.Stats() {
		if s.Stats.N > len(tuples)*2/cluster.Shards() {
			t.Fatalf("shard %d holds %d of %d tuples after quantile split", s.Shard, s.Stats.N, len(tuples))
		}
	}
	baseline, err := rsse.NewClient(rsse.LogarithmicSRCi, 14, rsse.WithSeed(4))
	must(t, err)
	baseIdx, err := baseline.BuildIndex(tuples)
	must(t, err)
	for _, q := range genRanges(14, 40, 6) {
		want, err := baseline.QueryContext(context.Background(), baseIdx, q)
		must(t, err)
		got, err := cluster.QueryBatchContext(context.Background(), []rsse.Range{q})
		must(t, err)
		if !equal(sorted(got.Results[0].Matches), sorted(want.Matches)) {
			t.Fatalf("%v: quantile cluster diverged", q)
		}
	}
}

// serveCluster registers the cluster's shards (by manifest name) into
// registries spread across addrs and serves each on a loopback listener.
// Returns the manifest with per-shard addresses filled in round-robin.
func serveCluster(t *testing.T, cluster *rsse.Cluster, base string, servers int) rsse.ClusterManifest {
	t.Helper()
	man := cluster.Manifest(base)
	regs := make([]*rsse.Registry, servers)
	addrs := make([]string, servers)
	for i := range regs {
		regs[i] = rsse.NewRegistry()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		must(t, err)
		addrs[i] = l.Addr().String()
		srv := rsse.NewServer(regs[i])
		go srv.Serve(l)
		t.Cleanup(func() {
			srv.Shutdown(context.Background())
			l.Close()
		})
	}
	for i := range man.Shards {
		s := i % servers
		if err := regs[s].Register(man.Shards[i].Name, cluster.ShardIndex(i)); err != nil {
			t.Fatal(err)
		}
		man.Shards[i].Addr = addrs[s]
	}
	return man
}

// TestClusterPartialResults kills one shard of a served cluster and
// checks both policies: fail-fast rejects the query, partial returns the
// reachable slices and reports the dead shard's error.
func TestClusterPartialResults(t *testing.T) {
	tuples := genTuples(300, 12, 51)
	built, err := rsse.BuildCluster(rsse.LogarithmicBRC, 12, 4, tuples,
		rsse.WithSeed(8))
	must(t, err)
	man := serveCluster(t, built, "t", 1)

	strict, err := rsse.DialCluster("tcp", "", man, built.MasterKey())
	must(t, err)
	defer strict.Close()

	full := rsse.Range{Lo: 0, Hi: (1 << 12) - 1}
	if _, err := strict.QueryBatchContext(context.Background(), []rsse.Range{full}); err != nil {
		t.Fatalf("healthy strict query: %v", err)
	}

	t.Run("dead address", func(t *testing.T) {
		// A shard pinned to an unreachable address fails at dial time.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		must(t, err)
		deadAddr := l.Addr().String()
		l.Close()
		man3 := man
		man3.Shards = append([]rsse.ClusterShardInfo(nil), man.Shards...)
		man3.Shards[2].Addr = deadAddr

		if _, err := rsse.DialCluster("tcp", "", man3, built.MasterKey()); err == nil {
			t.Fatal("dialing a dead shard address must fail at dial time")
		}
	})

	// An unknown served name: dialing succeeds (name resolution is lazy),
	// the sub-query fails at first use.
	t.Run("deregistered name", func(t *testing.T) {
		man4 := man
		man4.Shards = append([]rsse.ClusterShardInfo(nil), man.Shards...)
		man4.Shards[2].Name = "no-such-index"

		strict2, err := rsse.DialCluster("tcp", "", man4, built.MasterKey())
		must(t, err)
		defer strict2.Close()
		if _, err := strict2.QueryBatchContext(context.Background(), []rsse.Range{full}); err == nil {
			t.Fatal("strict query over a dead shard succeeded")
		}

		part2, err := rsse.DialCluster("tcp", "", man4, built.MasterKey(),
			rsse.WithPartialResults())
		must(t, err)
		defer part2.Close()
		res, err := part2.QueryBatchContext(context.Background(), []rsse.Range{full})
		if err != nil {
			t.Fatalf("partial query: %v", err)
		}
		deadRange := built.ShardRange(2)
		var live []rsse.ID
		for _, tup := range tuples {
			if !deadRange.Contains(tup.Value) {
				live = append(live, tup.ID)
			}
		}
		if !equal(sorted(res.Results[0].Matches), sorted(live)) {
			t.Fatalf("partial result wrong: %d matches, want %d", len(res.Results[0].Matches), len(live))
		}
		failed := 0
		for _, s := range res.Shards {
			if s.Err != nil {
				if s.Shard != 2 {
					t.Fatalf("wrong shard failed: %+v", s)
				}
				failed++
			}
		}
		if failed != 1 {
			t.Fatalf("%d shards failed, want 1", failed)
		}
	})
}

// TestClusterBatchStatsFoldShards: a cluster batch's Stats are the
// fold (BatchStats.Add) of its per-shard stats, with Ranges the number
// of input ranges rather than of shard slices, and a range cut across
// shards still answers exactly its matches.
func TestClusterBatchStatsFoldShards(t *testing.T) {
	tuples := genTuples(300, 10, 53)
	c, err := rsse.BuildCluster(rsse.LogarithmicSRCi, 10, 3, tuples, rsse.WithSeed(9))
	must(t, err)
	b01, b12 := c.ShardRange(1).Lo, c.ShardRange(2).Lo
	ranges := []rsse.Range{
		{Lo: b01 - 20, Hi: b01 + 20}, // shards 0 and 1
		{Lo: b12 + 3, Hi: b12 + 90},  // shard 2 alone
		{Lo: 5, Hi: 1000},            // all three
	}
	res, err := c.QueryBatchContext(context.Background(), ranges)
	must(t, err)
	if len(res.Shards) != 3 {
		t.Fatalf("%d shards answered, want 3", len(res.Shards))
	}
	var want rsse.BatchStats
	for _, s := range res.Shards {
		if s.Err != nil {
			t.Fatalf("shard %d: %v", s.Shard, s.Err)
		}
		want.Add(s.Stats)
	}
	want.Ranges = len(ranges)
	if res.Stats != want {
		t.Fatalf("batch stats %+v, want the shards' fold %+v", res.Stats, want)
	}
	if want.Rounds != 2 {
		t.Fatalf("SRC-i batch over three shards took %d rounds, want 2 (the maximum, not the sum)", want.Rounds)
	}
	for i, q := range ranges {
		if !equal(sorted(res.Results[i].Matches), sorted(oracle(tuples, q))) {
			t.Fatalf("range %d %v: %d matches, want %d", i, q, len(res.Results[i].Matches), len(oracle(tuples, q)))
		}
	}
}

func TestClusterContextCancel(t *testing.T) {
	tuples := genTuples(100, 10, 61)
	cluster, err := rsse.BuildCluster(rsse.LogarithmicBRC, 10, 2, tuples)
	must(t, err)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cluster.QueryBatchContext(ctx, []rsse.Range{{Lo: 0, Hi: 1023}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query error = %v", err)
	}
}

// TestClusterPersistReopen writes a built cluster's shards to disk under
// the manifest's conventional names, reopens the cluster from the files,
// and checks differential equality — the owner restart path.
func TestClusterPersistReopen(t *testing.T) {
	tuples := genTuples(250, 12, 81)
	built, err := rsse.BuildCluster(rsse.LogarithmicSRC, 12, 3, tuples,
		rsse.WithSeed(10))
	must(t, err)
	dir := t.TempDir()
	man := built.Manifest("demo")
	for i := 0; i < built.Shards(); i++ {
		blob, err := built.ShardIndex(i).MarshalBinary()
		must(t, err)
		if err := os.WriteFile(filepath.Join(dir, man.Shards[i].Name+".idx"), blob, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.WriteFile(filepath.Join(dir, "demo.cluster.json")); err != nil {
		t.Fatal(err)
	}

	reread, err := rsse.OpenCluster(man, built.MasterKey(),
		func(i int, info rsse.ClusterShardInfo) (*rsse.Index, error) {
			return rsse.OpenIndexFile(filepath.Join(dir, info.Name+".idx"), "disk")
		})
	must(t, err)
	defer reread.Close()
	for _, q := range genRanges(12, 30, 11) {
		res, err := reread.QueryBatchContext(context.Background(), []rsse.Range{q})
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if !equal(sorted(res.Results[0].Matches), oracle(tuples, q)) {
			t.Fatalf("%v: reopened cluster diverged", q)
		}
	}
	if reread.ShardIndex(0).Stats().Engine != "disk" {
		t.Fatalf("reopened engine %q", reread.ShardIndex(0).Stats().Engine)
	}
}

func TestClusterValidation(t *testing.T) {
	tuples := []rsse.Tuple{{ID: 1, Value: 1}, {ID: 1, Value: 2}}
	if _, err := rsse.BuildCluster(rsse.LogarithmicBRC, 8, 2, tuples); !errors.Is(err, rsse.ErrDuplicateID) {
		t.Fatalf("duplicate ids across shards: %v", err)
	}
	if _, err := rsse.BuildCluster(rsse.LogarithmicBRC, 8, 2,
		[]rsse.Tuple{{ID: 1, Value: 1 << 20}}); !errors.Is(err, rsse.ErrValueOutsideDomain) {
		t.Fatal("out-of-domain value accepted")
	}
	if _, err := rsse.BuildCluster(rsse.LogarithmicBRC, 8, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := rsse.BuildCluster(rsse.LogarithmicBRC, 8, 1000, nil); err == nil {
		t.Fatal("k > domain accepted")
	}
	if _, err := rsse.BuildCluster(rsse.LogarithmicBRC, 8, 2, nil,
		rsse.WithMasterKey([]byte("short"))); err == nil {
		t.Fatal("short cluster key accepted")
	}
	if _, err := rsse.OpenCluster(rsse.ClusterManifest{}, []byte("short"), nil); err == nil {
		t.Fatal("OpenCluster accepted a short key")
	}
	// A shard with no address and no default address fails fast.
	built, err := rsse.BuildCluster(rsse.LogarithmicBRC, 8, 2, nil)
	must(t, err)
	if _, err := rsse.DialCluster("tcp", "", built.Manifest("users"), built.MasterKey()); err == nil {
		t.Fatal("dial without addresses accepted")
	}
	// The key argument and a WithMasterKey option must agree.
	shards := func(i int, _ rsse.ClusterShardInfo) (*rsse.Index, error) { return built.ShardIndex(i), nil }
	if _, err := rsse.OpenCluster(built.Manifest("users"), built.MasterKey(), shards, rsse.WithMasterKey(make([]byte, 32))); err == nil {
		t.Fatal("a second, different cluster key accepted")
	}
	if _, err := rsse.OpenCluster(built.Manifest("users"), built.MasterKey(), shards, rsse.WithMasterKey(built.MasterKey())); err != nil {
		t.Fatalf("the same key twice refused: %v", err)
	}
	// k=1 degenerates to a single index and still answers queries.
	one, err := rsse.BuildCluster(rsse.LogarithmicBRC, 8, 1, genTuples(50, 8, 91))
	must(t, err)
	if _, err := one.QueryBatchContext(context.Background(), []rsse.Range{{Lo: 0, Hi: 255}}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterKeyDeterminism: the same cluster key re-creates clients
// that can query shard indexes built earlier. WithMasterKey is the
// cluster key, and so is the deprecated WithClusterKey inside the
// WithShardOptions spelling.
func TestClusterKeyDeterminism(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 3)
	}
	tuples := genTuples(200, 10, 92)
	q := rsse.Range{Lo: 100, Hi: 900}
	// open re-creates built's clients under k over copies of its shards.
	open := func(built *rsse.Cluster, k []byte) *rsse.Cluster {
		c, err := rsse.OpenCluster(built.Manifest("d"), k,
			func(i int, info rsse.ClusterShardInfo) (*rsse.Index, error) {
				blob, err := built.ShardIndex(i).MarshalBinary()
				if err != nil {
					return nil, err
				}
				return rsse.UnmarshalIndex(blob)
			})
		must(t, err)
		return c
	}
	for _, opts := range [][]rsse.Option{
		{rsse.WithMasterKey(key), rsse.WithSeed(12)},
		{rsse.WithClusterKey(key), rsse.WithShardOptions(rsse.WithSeed(12))},
	} {
		built, err := rsse.BuildCluster(rsse.LogarithmicBRC, 10, 3, tuples, opts...)
		must(t, err)
		if !bytes.Equal(built.MasterKey(), key) {
			t.Fatal("the cluster key is not the key given")
		}
		res, err := open(built, key).QueryBatchContext(context.Background(), []rsse.Range{q})
		must(t, err)
		if !equal(sorted(res.Results[0].Matches), oracle(tuples, q)) {
			t.Fatal("re-keyed cluster cannot read its own shards")
		}
		// A wrong key must not produce correct results.
		if res, err := open(built, make([]byte, 32)).QueryBatchContext(context.Background(), []rsse.Range{q}); err == nil && equal(sorted(res.Results[0].Matches), oracle(tuples, q)) {
			t.Fatal("wrong cluster key still decrypts")
		}
	}
}

// TestClusterBatchPathAllocs pins a batch_cluster-shaped query through
// the public API: a two-shard Logarithmic-URC cluster built, served and
// dialed over loopback, each op one sixteen-range batch of widths 64–511,
// eight in a 2,048-value window of each shard, owner and server together.
// Measured 73 objects since a search response is held flat, one byte
// array and one group-end array from the searcher to the demux; 77 with
// one byte slice per item, since the shards pad their cells from F (PRF
// suite 3), so a stag whose probe hits schedules no AES key; 204 with
// AES cells, since a batch plans its covers into one array,
// demultiplexes a round into one id array and one group-size array, and
// hands a range that one shard answered straight through; 472 while the
// plan deduplicated through a map, every range's cover, ids and groups
// were slices of their own, and every range merged into a fresh result.
// The guard sits about 10% above the count, so a per-range or per-hit
// allocation on any of those steps trips it.
func TestClusterBatchPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs the full 20k-tuple workload")
	}
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	const bits, half, window = 16, 1 << 15, 2048
	built, err := rsse.BuildCluster(rsse.LogarithmicURC, bits, 2, genTuples(20_000, bits, 46),
		rsse.WithStorage("sorted"), rsse.WithSeed(1))
	must(t, err)
	c, err := rsse.DialCluster("tcp", "", serveCluster(t, built, "allocs", 1), built.MasterKey(), rsse.WithSeed(2))
	must(t, err)
	defer c.Close()
	rnd := mrand.New(mrand.NewSource(47))
	batches := make([][]rsse.Range, 16)
	for b := range batches {
		base := rnd.Uint64() % (half - window)
		batches[b] = make([]rsse.Range, 16)
		for i := range batches[b] {
			w := 64 + rnd.Uint64()%448
			lo := base + uint64(i%2)*half + rnd.Uint64()%(window-w)
			batches[b][i] = rsse.Range{Lo: lo, Hi: lo + w - 1}
		}
	}
	i := 0
	got := testing.AllocsPerRun(64, func() {
		if _, err := c.QueryBatchContext(context.Background(), batches[i%len(batches)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("2-shard URC cluster: %.0f allocs/batch", got)
	if got > 80 {
		t.Errorf("16-range cluster batch allocates %.0f objects/op, guard is 80 — per-range or per-hit allocations are back?", got)
	}
}
