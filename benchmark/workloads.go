package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"

	"rsse"
	"rsse/internal/dataset"
)

// params are what a workload's inputs are made from.
type params struct {
	seed  int64
	scale int // 1; 10 under -smoke, which divides every dataset by ten
}

// workloadDef is one named workload. prepare makes the seeded inputs
// once (not timed) and returns the set-up function the harness times:
// build or load the index, start serving, return a deployment.
type workloadDef struct {
	name string
	// verifyOps ops of the seeded stream are checked against the oracle
	// before anything is timed; the deterministic counts are taken there.
	verifyOps int
	// tracedOps ops are replayed on one client by the traced pass.
	tracedOps int
	prepare   func(p params) (setup func(work string) (*deployment, error), err error)
}

const servedName = "bench"

// Dataset sizes. ISSUE 11 asks for 100k/100k/20k/50k/8,192 tuples and a
// 20 s interval; the driver's contract gives all 114 runs 3,420 s, and a
// run sets up three times, so one set-up has to stay near one second
// (Logarithmic-BRC builds ≈11k tuples/s on the reference box). The
// query-side behaviour the workloads are chosen for — cache fit, miss
// rate, false positives, dedup, flush stalls — does not depend on n.
const (
	narrowTuples  = 12_000
	wideTuples    = 40_000
	srciTuples    = 10_000
	clusterTuples = 20_000
	dynPreload    = 4_096
	dynFlushEvery = 256 // stated flush policy: the writer flushes every 256 writes
	dynReadsPerWr = 4   // reads client 0 issues after each of its writes
	dynSyncEvery  = 64  // stated fsync policy: WithSyncEvery(64)
	dynStep       = 4   // consolidation step
)

func workloads() []workloadDef {
	return []workloadDef{
		{name: "narrow_zipf", verifyOps: 2000, tracedOps: 4000, prepare: indexWorkload{
			kind: rsse.LogarithmicBRC, bits: 16, n: narrowTuples,
			build:  []rsse.Option{rsse.WithSSE("tset"), rsse.WithStorage("map")},
			memo:   16384,
			tuples: func(n int, seed int64) []rsse.Tuple { return dataset.Uniform(n, 16, seed) },
			ranges: narrowRanges,
		}.prepare},
		{name: "wide_uniform", verifyOps: 200, tracedOps: 200, prepare: indexWorkload{
			kind: rsse.ConstantBRC, bits: 20, n: wideTuples,
			tuples: func(n int, seed int64) []rsse.Tuple { return dataset.Uniform(n, 20, seed) },
			ranges: wideRanges,
		}.prepare},
		{name: "srci_filter", verifyOps: 300, tracedOps: 300, prepare: indexWorkload{
			kind: rsse.LogarithmicSRCi, bits: 16, n: srciTuples, viaFile: true,
			tuples: skewedTuples,
			ranges: srciRanges,
		}.prepare},
		{name: "batch_cluster", verifyOps: 300, tracedOps: 300, prepare: prepareCluster},
		{name: "mixed_dynamic", verifyOps: 1200, tracedOps: 1000, prepare: prepareDynamic},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Op streams 0 and 1 belong to the two load clients; the single-client
// passes of a traced run draw their own, so that the traced replay does
// not find the server's caches filled by the reference replay.
const referenceClient, tracedClient = 2, 3

func soloClient(tr *tracer) int {
	if tr == nil {
		return referenceClient
	}
	return tracedClient
}

// rangeGen draws a client's next range. fresh reports that the owner
// must forget its query history first (the Constant schemes refuse
// intersecting queries; wide_uniform walks disjoint slots and starts
// over, as after a re-key, once a client has used all of its own).
type rangeGen func() (q rsse.Range, fresh bool)

// narrowRanges: zipf-distributed centres, width 1-8. Ranks map to values
// through a fixed odd multiplier so the hot keys spread over the domain.
// With exponent 2 and offset 64 a centre of rank k or above is drawn with
// probability 64/(64+k): no centre carries more than 1.6% of the stream,
// half of it falls on 64 centres and 97% on 2,000 — times eight widths,
// the 16,384 ranges the trapdoor memo holds; their stags fit the cache.
func narrowRanges(rng *rand.Rand, _ int) rangeGen {
	const size = 1 << 16
	zipf := rand.NewZipf(rng, 2, 64, size-1)
	return func() (rsse.Range, bool) {
		centre := (zipf.Uint64() * 40503) % size
		w := uint64(1 + rng.Intn(8))
		lo := centre - min(centre, w/2)
		return rsse.Range{Lo: lo, Hi: min(lo+w-1, size-1)}, false
	}
}

// wideRanges: width 128-1024 at a uniform position inside a 1,024-value
// slot of the 2^20 domain. Client i owns the slots congruent to i mod 2
// and visits them in a seeded order, so queries never intersect until it
// has used all 512; then its history is cleared and it reshuffles. The
// 2^20 leaf stags are eight times the 131,072-entry stag cache.
func wideRanges(rng *rand.Rand, client int) rangeGen {
	const slot, slots = 1024, (1 << 20) / 1024
	var mine []uint64
	for s := client % 2; s < slots; s += 2 {
		mine = append(mine, uint64(s))
	}
	pos := len(mine)
	return func() (rsse.Range, bool) {
		fresh := false
		if pos == len(mine) {
			rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
			pos, fresh = 0, true
		}
		w := uint64(128 + rng.Intn(slot-128+1))
		lo := mine[pos]*slot + uint64(rng.Int63n(int64(slot-w+1)))
		pos++
		return rsse.Range{Lo: lo, Hi: lo + w - 1}, fresh
	}
}

const srciBandLo, srciBandHi = 1 << 13, 1 << 15

// skewedTuples draws n tuples over n/20 distinct values placed in the
// band [2^13, 2^15), the k-th value with weight 1/(k+64): the hottest
// value holds nine times the tuples of the coldest, and about half of
// what a query's window returns is a false positive.
// dataset.BandedZipfPool has the same shape but its s > 1 law puts a
// quarter of all tuples on one value; a query touching it costs a
// hundred times the median, a run holds some thirty of them, and the
// run's throughput would be a count of those — while the median would
// follow wherever the seed happened to place the few hot values.
func skewedTuples(n int, seed int64) []rsse.Tuple {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]uint64, max(n/20, 1))
	cum := make([]float64, len(pool))
	var total float64
	for k := range pool {
		pool[k] = srciBandLo + uint64(rng.Int63n(srciBandHi-srciBandLo))
		total += 1 / float64(k+64)
		cum[k] = total
	}
	out := make([]rsse.Tuple, n)
	for i := range out {
		k := min(sort.SearchFloat64s(cum, rng.Float64()*total), len(pool)-1)
		out[i] = rsse.Tuple{ID: uint64(i + 1), Value: pool[k]}
	}
	return out
}

// srciRanges: uniform centres inside the band the skewed values live in,
// width 16-255.
func srciRanges(rng *rand.Rand, _ int) rangeGen {
	return func() (rsse.Range, bool) {
		w := uint64(16 + rng.Intn(240))
		lo := srciBandLo + uint64(rng.Int63n(int64(srciBandHi-srciBandLo-w)))
		return rsse.Range{Lo: lo, Hi: lo + w - 1}, false
	}
}

// indexWorkload is the shape narrow_zipf, wide_uniform and srci_filter
// share: one index, one served name, owners that query it remotely.
type indexWorkload struct {
	kind    rsse.Kind
	bits    uint8
	n       int
	build   []rsse.Option // construction options of the building owner
	memo    int           // trapdoor-memo capacity of every querying owner; 0 is off
	viaFile bool          // write the index out and serve it from OpenIndexFile(path, "disk")
	tuples  func(n int, seed int64) []rsse.Tuple
	ranges  func(rng *rand.Rand, client int) rangeGen
}

func (w indexWorkload) prepare(p params) (func(string) (*deployment, error), error) {
	tuples := w.tuples(w.n/p.scale, p.seed)
	key := seededKey(p.seed)
	oracle := staticOracle{newSnapshot(tuples)}
	return func(work string) (*deployment, error) {
		builder, err := rsse.NewClient(w.kind, w.bits,
			append([]rsse.Option{rsse.WithMasterKey(key), rsse.WithSeed(p.seed)}, w.build...)...)
		if err != nil {
			return nil, err
		}
		d := &deployment{oracle: oracle, tuples: len(tuples), wire: &wireCounter{}}
		start := nowNs()
		idx, err := builder.BuildIndex(tuples)
		if err != nil {
			return nil, err
		}
		d.buildNs = nowNs() - start
		if w.viaFile {
			blob, err := idx.MarshalBinary()
			if err != nil {
				return nil, err
			}
			path := filepath.Join(work, servedName+".idx")
			if err := os.WriteFile(path, blob, 0o600); err != nil {
				return nil, err
			}
			start = nowNs()
			if idx, err = rsse.OpenIndexFile(path, "disk"); err != nil {
				return nil, err
			}
			d.openNs = nowNs() - start
		}
		st := idx.Stats()
		d.indexBytes, d.residentBytes = int64(st.IndexBytes), st.Resident
		reg := rsse.NewRegistry()
		if err := reg.Register(servedName, idx); err != nil {
			return nil, err
		}
		srv, err := serve(reg)
		if err != nil {
			return nil, err
		}
		d.shutdown = func() error {
			if err := srv.stop(); err != nil {
				return err
			}
			return idx.Close()
		}
		ownerOpts := func(client int) []rsse.Option {
			return []rsse.Option{rsse.WithMasterKey(key), rsse.WithSeed(p.seed + int64(client) + 1), rsse.WithTrapdoorMemo(w.memo)}
		}
		d.open = func(client int) (session, error) {
			cl, err := rsse.NewClient(w.kind, w.bits, ownerOpts(client)...)
			if err != nil {
				return nil, err
			}
			r, err := rsse.DialIndexWith("tcp", srv.addr, servedName, rsse.WithConnWrapper(d.wire.wrap))
			if err != nil {
				return nil, err
			}
			return &indexSession{cl: cl, r: r,
				rangeStream: rangeStream{gen: w.ranges(clientRand(p.seed, client), client), reset: cl.ResetHistory}}, nil
		}
		d.openTraced = func(tr *tracer) (session, error) {
			if tr == nil {
				return d.open(referenceClient)
			}
			return openTracedIndex(tr, w, key, p.seed, srv.addr)
		}
		return d, nil
	}, nil
}

// rangeStream turns a rangeGen into a stream of single-range read ops,
// clearing the owner's query history when the generator asks for it.
type rangeStream struct {
	gen   rangeGen
	reset func()
	cur   op
	buf   [1]rsse.Range
}

func (r *rangeStream) next() *op {
	q, fresh := r.gen()
	if fresh {
		r.reset()
	}
	r.buf[0] = q
	r.cur = op{kind: opRead, ranges: r.buf[:]}
	return &r.cur
}

// indexSession is a closed-loop owner of an index workload, through the
// public API only.
type indexSession struct {
	rangeStream
	cl *rsse.Client
	r  *rsse.RemoteIndex
}

func (s *indexSession) do(o *op) ([][]uint64, counts, error) {
	res, err := s.cl.QueryRemoteContext(context.Background(), s.r, o.ranges[0])
	if err != nil {
		return nil, counts{}, err
	}
	return [][]uint64{res.Matches}, queryCounts(s.cl.Kind(), &res.Stats), nil
}

func (s *indexSession) memo() (uint64, uint64) { return s.cl.TrapdoorMemoStats() }
func (s *indexSession) close() error           { return s.r.Close() }

func queryCounts(kind rsse.Kind, st *rsse.QueryStats) counts {
	c := counts{
		Rounds: int64(st.Rounds), Tokens: int64(st.Tokens), TokenBytes: int64(st.TokenBytes),
		ResponseItems: int64(st.ResponseItems), Raw: int64(st.Raw), FalsePositives: int64(st.FalsePositives),
		CoverNodes: int64(st.Tokens), UniqueTokens: int64(st.Tokens),
		OwnerNs: int64(st.OwnerTime), ServerNs: int64(st.ServerTime),
	}
	if kind.HasFalsePositives() {
		c.Fetches = int64(st.Raw) // the filter fetches and decrypts every returned id
	}
	if kind == rsse.LogarithmicSRCi {
		c.CoverNodes = int64(st.Rounds) // one single-range-cover window per round
	}
	for _, level := range st.TokenLevels {
		c.Leaves += 1 << level
	}
	return c
}

// batch_cluster: Logarithmic-URC on the sorted engine, two shards served
// by the one server, every op one Cluster.QueryBatch of sixteen ranges of
// width 64-511: eight overlapping ones inside a 2,048-value hotspot
// window, and eight inside the same window half a domain away, so that
// every batch is split, scattered to both shards and merged.
const (
	clusterBits   = 16
	clusterShards = 2
	batchRanges   = 16
	batchWindow   = 2048
)

func prepareCluster(p params) (func(string) (*deployment, error), error) {
	tuples := dataset.Uniform(clusterTuples/p.scale, clusterBits, p.seed)
	key := seededKey(p.seed)
	oracle := staticOracle{newSnapshot(tuples)}
	shardOpts := func(client int) rsse.ClusterOption {
		return rsse.WithShardOptions(rsse.WithStorage("sorted"), rsse.WithSeed(p.seed+int64(client)+1))
	}
	return func(string) (*deployment, error) {
		d := &deployment{oracle: oracle, tuples: len(tuples), wire: &wireCounter{}}
		start := nowNs()
		built, err := rsse.BuildCluster(rsse.LogarithmicURC, clusterBits, clusterShards, tuples,
			rsse.WithClusterKey(key), shardOpts(-1))
		if err != nil {
			return nil, err
		}
		d.buildNs = nowNs() - start
		man := built.Manifest(servedName)
		reg := rsse.NewRegistry()
		for i, st := range built.Stats() {
			d.indexBytes += int64(st.Stats.IndexBytes)
			d.residentBytes += st.Stats.Resident
			if err := reg.Register(man.Shards[i].Name, built.ShardIndex(i)); err != nil {
				return nil, err
			}
		}
		srv, err := serve(reg)
		if err != nil {
			return nil, err
		}
		d.shutdown = srv.stop
		dial := func(client int) (*rsse.Cluster, error) {
			return rsse.DialCluster("tcp", srv.addr, man, key, shardOpts(client), rsse.WithShardConnWrapper(d.wire.wrap))
		}
		d.open = func(client int) (session, error) {
			c, err := dial(client)
			if err != nil {
				return nil, err
			}
			return &clusterSession{c: c, rng: clientRand(p.seed, client)}, nil
		}
		d.openTraced = func(tr *tracer) (session, error) {
			if tr == nil {
				return d.open(referenceClient)
			}
			c, err := dial(tracedClient)
			if err != nil {
				return nil, err
			}
			return newTracedCluster(tr, &clusterSession{c: c, rng: clientRand(p.seed, tracedClient)}), nil
		}
		return d, nil
	}, nil
}

type clusterSession struct {
	c   *rsse.Cluster
	rng *rand.Rand
	cur op
	buf [batchRanges]rsse.Range
}

func (s *clusterSession) next() *op {
	const half = 1 << (clusterBits - 1)
	base := uint64(s.rng.Int63n(half - batchWindow))
	for i := range s.buf {
		w := uint64(64 + s.rng.Intn(448))
		lo := base + uint64(i%2)*half + uint64(s.rng.Int63n(int64(batchWindow-w)))
		s.buf[i] = rsse.Range{Lo: lo, Hi: lo + w - 1}
	}
	s.cur = op{kind: opRead, ranges: s.buf[:]}
	return &s.cur
}

func (s *clusterSession) do(o *op) ([][]uint64, counts, error) {
	res, err := s.query(o)
	if err != nil {
		return nil, counts{}, err
	}
	ids := make([][]uint64, len(res.Results))
	for i, r := range res.Results {
		ids[i] = r.Matches
	}
	return ids, batchCounts(res), nil
}

func (s *clusterSession) query(o *op) (*rsse.ClusterBatchResult, error) {
	res, err := s.c.QueryBatchContext(context.Background(), o.ranges)
	if err != nil {
		return nil, err
	}
	return res, res.PartialErr()
}

func batchCounts(res *rsse.ClusterBatchResult) counts {
	st := res.Stats
	return counts{
		Rounds: int64(st.Rounds), Tokens: int64(st.UniqueTokens), TokenBytes: int64(st.TokenBytes),
		ResponseItems: int64(st.ResponseItems), Raw: int64(st.ResponseItems),
		CoverNodes: int64(st.CoverNodes), UniqueTokens: int64(st.UniqueTokens),
		Subqueries: int64(len(res.Shards)),
		OwnerNs:    int64(st.OwnerTime), ServerNs: int64(st.ServerTime),
	}
}

func (s *clusterSession) memo() (uint64, uint64) { return 0, 0 }
func (s *clusterSession) close() error           { return s.c.Close() }

// mixed_dynamic: a durable OpenDynamic store behind RegisterWritable;
// client 0 writes at a fixed rate (every fourth write deletes an earlier
// put) and flushes on its stated schedule, client 1 reads width-64
// ranges as fast as its answers arrive.
const (
	dynBits       = 16
	dynReadWidth  = 64
	dynPayloadLen = 16
)

type dynamicStore struct {
	dir    string
	store  *rsse.Dynamic
	oracle *dynamicOracle
	// epochBytes sums the sizes of the epoch files flushes have written;
	// seen names the ones already counted. Touched by the writer only.
	epochBytes int64
	seen       map[string]bool
	soloPasses int // single-client passes opened so far; each writes its own id range
}

func dynOptions(seed int64) []rsse.Option {
	return []rsse.Option{rsse.WithSyncEvery(dynSyncEvery), rsse.WithSeed(seed)}
}

func prepareDynamic(p params) (func(string) (*deployment, error), error) {
	preload := dataset.Uniform(dynPreload/p.scale, dynBits, p.seed)
	return func(work string) (*deployment, error) {
		ds := &dynamicStore{dir: filepath.Join(work, "store"), oracle: newDynamicOracle(), seen: map[string]bool{}}
		d := &deployment{oracle: ds.oracle, tuples: len(preload), wire: &wireCounter{}, dyn: ds}
		start := nowNs()
		store, err := rsse.OpenDynamic(ds.dir, rsse.LogarithmicBRC, dynBits, dynStep, dynOptions(p.seed)...)
		if err != nil {
			return nil, err
		}
		ds.store = store
		per := max(len(preload)/8, 1)
		for i, t := range preload {
			if err := store.Insert(t.ID, t.Value, payloadFor(t.ID)); err != nil {
				return nil, err
			}
			ds.oracle.insert(t.ID, t.Value)
			if (i+1)%per == 0 || i == len(preload)-1 {
				ds.oracle.flushStarted()
				if err := store.Flush(); err != nil {
					return nil, err
				}
				ds.oracle.flushDone()
			}
		}
		d.buildNs = nowNs() - start
		ds.countEpochFiles()
		ds.epochBytes = 0 // the write-amplification figure starts after the preload
		d.indexBytes = int64(store.TotalIndexSize())
		reg := rsse.NewRegistry()
		if err := reg.RegisterWritable(servedName, store); err != nil {
			return nil, err
		}
		srv, err := serve(reg)
		if err != nil {
			return nil, err
		}
		d.shutdown = func() error {
			if err := srv.stop(); err != nil {
				return err
			}
			return store.Close()
		}
		dial := func() (*rsse.RemoteDynamic, error) {
			conn, err := net.Dial("tcp", srv.addr)
			if err != nil {
				return nil, err
			}
			return rsse.NewRemoteDynamic(d.wire.wrap(conn), servedName), nil
		}
		d.open = func(client int) (session, error) {
			rd, err := dial()
			if err != nil {
				return nil, err
			}
			s := &dynamicSession{ds: ds, rd: rd, rng: clientRand(p.seed, client), reads: true}
			if client == 0 {
				s.writes, s.readsPerWrite, s.flushEvery = true, dynReadsPerWr, dynFlushEvery
				// The first flush comes after a quarter of a batch, inside the
				// verification pass.
				s.flushPhase = dynFlushEvery / 4
				s.nextID = uint64(len(preload)) + 1
				for _, t := range preload {
					s.live = append(s.live, pair{t.Value, t.ID})
				}
			}
			return s, nil
		}
		d.openTraced = func(tr *tracer) (session, error) {
			rd, err := dial()
			if err != nil {
				return nil, err
			}
			// The single client of the traced pass alternates a write and
			// a read and flushes every 200 writes, so that a 1,000-op
			// replay holds updates, queries and flushes.
			s := &dynamicSession{ds: ds, rd: rd, rng: clientRand(p.seed, soloClient(tr)),
				writes: true, reads: true, readsPerWrite: 1, flushEvery: 200}
			if tr != nil {
				// The two replays take turns on the one store: out of
				// phase, each flush finds the other's writes to seal too.
				s.flushPhase = s.flushEvery / 2
			}
			s.nextID = 1<<40 + uint64(ds.soloPasses)<<32
			ds.soloPasses++
			if tr == nil {
				return s, nil
			}
			return newTracedDynamic(tr, s, work)
		}
		d.finish = func() (int, int, error) { return ds.reopenAndCompare(work, p.seed) }
		return d, nil
	}, nil
}

func payloadFor(id uint64) []byte {
	p := make([]byte, dynPayloadLen)
	for i := range p {
		p[i] = byte(id >> (8 * (i % 8)))
	}
	return p
}

// countEpochFiles adds the sizes of epoch files not seen before.
func (ds *dynamicStore) countEpochFiles() {
	entries, err := os.ReadDir(ds.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".idx" || ds.seen[e.Name()] {
			continue
		}
		if info, err := e.Info(); err == nil {
			ds.seen[e.Name()] = true
			ds.epochBytes += info.Size()
		}
	}
}

// reopenAndCompare is the durability check: the store directory is
// copied while the store is still open (no Close, no final Flush — what
// a crashed process leaves behind, page cache intact), the copy is
// reopened, its WAL tail flushed, and the whole domain compared with
// every write the oracle saw acknowledged.
func (ds *dynamicStore) reopenAndCompare(work string, seed int64) (attempted, failed int, err error) {
	copyDir := filepath.Join(work, "reopened")
	if err := os.CopyFS(copyDir, os.DirFS(ds.dir)); err != nil {
		return 0, 0, err
	}
	re, err := rsse.OpenDynamic(copyDir, rsse.LogarithmicBRC, dynBits, dynStep, dynOptions(seed)...)
	if err != nil {
		return 0, 0, fmt.Errorf("reopening the copied store: %w", err)
	}
	defer re.Close()
	if err := re.Flush(); err != nil {
		return 0, 0, err
	}
	all := rsse.Range{Lo: 0, Hi: 1<<dynBits - 1}
	got, _, err := re.Query(all)
	if err != nil {
		return 0, 0, err
	}
	want := ds.oracle.liveSnapshot()
	have := make(map[uint64]uint64, len(got))
	for _, t := range got {
		have[t.ID] = t.Value
	}
	for _, p := range want {
		if v, ok := have[p.id]; !ok || v != p.value {
			failed++ // an acknowledged write is missing
		}
		delete(have, p.id)
	}
	failed += len(have) // a deleted tuple came back
	return len(want), failed, nil
}

type dynamicSession struct {
	ds            *dynamicStore
	rd            *rsse.RemoteDynamic
	rng           *rand.Rand
	writes, reads bool
	readsPerWrite int // a session that does both issues this many reads after each write
	flushEvery    int
	flushPhase    int // the writer flushes when its write count ≡ flushPhase mod flushEvery
	nextID        uint64
	live          []pair // this writer's own record of what it may delete
	nWrites       int
	flushedAt     int // nWrites when the last flush was issued
	turn          int
	flushed       bool
	cur           op
	buf           [1]rsse.Range
}

func (s *dynamicSession) next() *op {
	if s.flushed {
		s.ds.countEpochFiles()
		s.flushed = false
	}
	s.turn++
	if s.reads && (!s.writes || s.turn%(s.readsPerWrite+1) != 1) {
		lo := uint64(s.rng.Int63n(1<<dynBits - dynReadWidth))
		s.buf[0] = rsse.Range{Lo: lo, Hi: lo + dynReadWidth - 1}
		s.cur = op{kind: opRead, ranges: s.buf[:]}
		return &s.cur
	}
	switch {
	case s.nWrites%s.flushEvery == s.flushPhase && s.flushedAt != s.nWrites:
		s.flushedAt = s.nWrites
		s.cur = op{kind: opFlush}
		return &s.cur
	case s.nWrites%4 == 3 && len(s.live) > 0:
		i := s.rng.Intn(len(s.live))
		victim := s.live[i]
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		s.cur = op{kind: opDelete, id: victim.id, value: victim.value}
	default:
		s.cur = op{kind: opInsert, id: s.nextID, value: uint64(s.rng.Int63n(1 << dynBits))}
		s.nextID++
		s.live = append(s.live, pair{s.cur.value, s.cur.id})
	}
	s.nWrites++
	return &s.cur
}

func (s *dynamicSession) do(o *op) ([][]uint64, counts, error) {
	switch o.kind {
	case opInsert:
		if err := s.rd.Insert(o.id, o.value, payloadFor(o.id)); err != nil {
			return nil, counts{}, err
		}
		s.ds.oracle.insert(o.id, o.value)
	case opDelete:
		if err := s.rd.Delete(o.id, o.value); err != nil {
			return nil, counts{}, err
		}
		s.ds.oracle.delete(o.id)
	case opFlush:
		s.ds.oracle.flushStarted()
		if err := s.rd.Flush(); err != nil {
			return nil, counts{}, err
		}
		s.ds.oracle.flushDone()
		s.flushed = true
	case opRead:
		tuples, err := s.rd.QueryContext(context.Background(), o.ranges[0])
		if err != nil {
			return nil, counts{}, err
		}
		ids := make([]uint64, len(tuples))
		for i, t := range tuples {
			ids[i] = t.ID
		}
		return [][]uint64{ids}, counts{Rounds: 1, ResponseItems: int64(len(tuples))}, nil
	}
	return nil, counts{}, nil
}

func (s *dynamicSession) memo() (uint64, uint64) { return 0, 0 }
func (s *dynamicSession) close() error           { return s.rd.Close() }
