package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/obs"
	"rsse/internal/prf"
	"rsse/internal/secenc"
	"rsse/internal/storage"
)

// layerInputs gathers what the per-layer metrics are computed from: the
// verification pass's deterministic counts, the measured interval's
// counter deltas, and the traced pass.
type layerInputs struct {
	def      workloadDef
	dep      *deployment
	verified counts // summed over the verification pass
	vOps     int64
	// verifiedWire is bytes on the owner's sockets per op of the
	// verification pass: the wire cost as a count that repeats exactly.
	verifiedWire float64
	ops          int64 // ops of the measured interval
	elapsed      time.Duration
	obs          map[string]float64 // registry delta over the measured interval
	gc0, gc1     *runtime.MemStats

	writes, flushes        []uint32 // sorted latencies of the measured interval
	epochBytes             int64
	stagHits, stagMisses   uint64
	memoHits, memoMisses   uint64
	spans                  []span
	tracedOps              int
	tracedMean, untracedNs float64 // per op, flushes left out
	totals                 traceTotals
}

// tracedPass replays tracedOps ops on one client twice over, an untraced
// op (through the session type the load clients use: the reference) and
// a traced op taking turns, so that both replays see the same machine.
// The two draw different op streams of the same distribution: a traced op
// must not find the server's caches filled by its untraced twin.
func tracedPass(cfg runConfig, total *tally, lm *layerInputs, tracedOps int) (stages []stageCost, err error) {
	ref, err := lm.dep.openTraced(nil)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	tr := newTracer()
	s, err := lm.dep.openTraced(tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	// Flushes are left out of the comparison: what a flush costs depends
	// on whether it triggers a consolidation, not on whether it is traced.
	var untraced time.Duration
	compared := 0
	for i := 0; i < tracedOps; i++ {
		a := try(ref, lm.dep.oracle, true)
		total.add(a)
		if a.op.kind != opFlush {
			untraced += a.took
			compared++
		}
		total.add(try(s, lm.dep.oracle, true))
		tr.nextOp()
	}
	lm.untracedNs = float64(untraced) / float64(compared)
	lm.totals = s.(tracedSession).totals()
	lm.spans, lm.tracedOps = tr.spans, tracedOps
	rows, _ := ledger(tr.spans, tracedOps)
	_, flushes := sumStage(tr.spans, stFlush)
	var rootNs int64
	for _, name := range []string{stQuery, stUpdate} {
		ns, _ := sumStage(tr.spans, name)
		rootNs += ns
	}
	lm.tracedMean = float64(rootNs) / float64(tracedOps-flushes)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	return rows, writeTrace(tracePath(cfg.outDir, cfg.workload), &traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Ops: tracedOps,
		UntracedMeanNs: lm.untracedNs, TracedMeanNs: lm.tracedMean,
		Stages: rows, Spans: tr.spans,
	})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills in every per-layer metric. A metric that does not
// apply to the workload (dprf on a stag scheme, lsm on a static index)
// is reported as 0, so that every run prints every name.
func layerMetrics(res *runResult, lm *layerInputs) {
	m := res.Metrics
	v, vOps := lm.verified, float64(lm.vOps)
	ops, tOps := float64(lm.ops), float64(lm.tracedOps)
	perTraced := func(stage string) float64 {
		total, _ := sumStage(lm.spans, stage)
		return float64(total) / tOps
	}
	selfOf := map[string]float64{}
	for _, r := range res.Stages {
		selfOf[r.Name] = r.SelfNs
	}

	// cover
	m["cover.ns_per_query"] = perTraced(stCover)
	m["cover.nodes_per_query"] = float64(v.CoverNodes) / vOps
	m["cover.batch_dedup_ratio"] = ratio(float64(v.CoverNodes), float64(v.UniqueTokens))

	// core, owner side
	m["core.trapdoor_ns_per_query"] = float64(lm.totals.trapdoorNs) / tOps
	m["core.tdmemo_hit_ratio"] = ratio(float64(lm.memoHits), float64(lm.memoHits+lm.memoMisses))
	m["core.tokens_per_query"] = float64(v.Tokens) / vOps
	m["core.token_bytes_per_query"] = float64(v.TokenBytes) / vOps
	m["core.encode_ns_per_query"] = perTraced(stEncode) + perTraced(stDecode)
	m["core.rounds_per_query"] = float64(v.Rounds) / vOps
	m["core.owner_ns_per_query"] = float64(v.OwnerNs) / vOps
	m["core.server_ns_per_query"] = float64(v.ServerNs) / vOps
	m["core.raw_ids_per_query"] = float64(v.Raw) / vOps
	m["core.false_positives_per_query"] = float64(v.FalsePositives) / vOps
	m["core.fetches_per_query"] = float64(v.Fetches) / vOps
	m["core.fetch_filter_ns_per_query"] = perTraced(stFetchFilter)

	// core, server side
	m["core.search_ns_per_query"] = perTraced(stSearchLocal)
	m["core.response_items_per_query"] = float64(v.ResponseItems) / vOps
	m["core.response_encode_ns_per_query"] = perTraced(stResponseEncode)

	// prf, dprf: unit costs of the layers' exported functions
	m["prf.eval_ns"], m["prf.derive_ns"] = probePRF()
	m["dprf.delegate_ns_per_token"], m["dprf.expand_ns_per_leaf"] = 0, 0
	if v.Leaves > 0 {
		m["dprf.delegate_ns_per_token"], m["dprf.expand_ns_per_leaf"] = probeDPRF(res.Seed)
	}
	m["dprf.leaves_per_query"] = float64(v.Leaves) / vOps

	// sse
	m["sse.search_ns_per_item"] = ratio(selfOf[stSearchLocal]*tOps, float64(lm.totals.items))
	m["sse.stag_cache_hit_ratio"] = ratio(float64(lm.stagHits), float64(lm.stagHits+lm.stagMisses))

	// storage
	m["storage.get_ns"] = probeStorage(engineOf(lm.def.name), res.Seed)
	m["storage.index_bytes"] = float64(lm.dep.indexBytes)
	m["storage.resident_bytes"] = float64(lm.dep.residentBytes)

	// secenc: the filter's decryptions where the workload has them, the
	// unit cost of one tuple decryption otherwise
	if total, calls := sumStage(lm.spans, stDecrypt); calls > 0 {
		m["secenc.decrypt_ns_per_tuple"] = float64(total) / float64(calls)
	} else {
		m["secenc.decrypt_ns_per_tuple"] = probeDecrypt()
	}

	// transport: what a round trip costs beyond the server's execution
	var tripSelf float64
	trips := 0
	for _, r := range res.Stages {
		switch r.Name {
		case stSearchRemote, stFetchRemote, stRoundTrip:
			tripSelf += r.SelfNs * tOps
			trips += r.Calls
		}
	}
	m["transport.rtt_ns"] = ratio(tripSelf, float64(trips))
	m["transport.queue_wait_p99_us"] = float64(obs.Default.Histogram("rsse_dispatch_queue_wait_seconds", "").Quantile(0.99)) / 1e3
	m["transport.verified_wire_bytes_per_query"] = lm.verifiedWire
	m["transport.requests_per_query"] = sumPrefix(lm.obs, "rsse_requests_total") / ops
	m["transport.request_bytes_per_query"] = lm.obs[`rsse_request_bytes_total{dir="in"}`] / ops
	m["transport.response_bytes_per_query"] = lm.obs[`rsse_request_bytes_total{dir="out"}`] / ops
	m["transport.shed_total"] = lm.obs["rsse_requests_shed_total"]
	m["transport.request_errors_total"] = sumPrefix(lm.obs, "rsse_request_errors_total")

	// shard
	m["shard.subqueries_per_query"] = float64(v.Subqueries) / vOps
	m["shard.subquery_p50_us"] = stageMedian(lm.spans, stSubquery) / 1e3
	m["shard.fanout_overhead_ns"] = 0
	if v.Subqueries > 0 {
		m["shard.fanout_overhead_ns"] = selfOf[stQuery] // op time no shard's sub-query covers
	}

	// lsm, wal
	m["lsm.flush_p50_ms"] = percentile(lm.flushes, 0.5) / 1e6
	var flushNs float64
	for _, f := range lm.flushes {
		flushNs += float64(f)
	}
	m["lsm.flush_busy_ratio"] = flushNs / float64(lm.elapsed)
	m["lsm.flushes_total"] = lm.obs["rsse_lsm_flushes_total"]
	m["lsm.consolidations_total"] = lm.obs["rsse_lsm_consolidations_total"]
	m["lsm.epochs_per_query"] = ratio(float64(lm.totals.epochs), float64(lm.totals.reads))
	m["wal.append_ns"] = 0
	if total, calls := sumStage(lm.spans, stWALAppend); calls > 0 {
		m["wal.append_ns"] = float64(total) / float64(calls)
	}
	m["wal.fsyncs_total"] = lm.obs["rsse_wal_fsyncs_total"]
	m["wal.bytes_per_update"] = ratio(float64(lm.totals.walBytes), float64(lm.totals.walAppends))
	userBytes := float64(len(lm.writes)) * (16 + dynPayloadLen) // id, value, payload
	m["lsm.bytes_written_per_user_byte"] = ratio(float64(lm.epochBytes)+float64(len(lm.writes))*m["wal.bytes_per_update"], userBytes)

	// public API
	m["rsse.build_ns_per_tuple"] = float64(lm.dep.buildNs) / float64(lm.dep.tuples)
	m["rsse.open_index_ms"] = float64(lm.dep.openNs) / 1e6

	// runtime, over the measured interval
	m["runtime.gc_cycles"] = float64(lm.gc1.NumGC - lm.gc0.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(lm.gc1.PauseTotalNs-lm.gc0.PauseTotalNs) / 1e6
	m["runtime.heap_inuse_mb"] = float64(lm.gc1.HeapInuse) / (1 << 20)

	// trace: how much of an op the named stages explain, and what
	// tracing cost
	var named, all float64
	for _, r := range res.Stages {
		all += r.SelfNs
		if r.Layer != "unattributed" {
			named += r.SelfNs
		}
	}
	m["trace.coverage_ratio"] = ratio(named/all*lm.tracedMean, lm.untracedNs)
	m["trace.overhead_ratio"] = ratio(lm.tracedMean, lm.untracedNs)

	// end-to-end figures of the write path: mixed_dynamic has them, the
	// static workloads do not, and an end-to-end metric must exist on
	// every workload — so they are reported here.
	m["e2e.updates_per_s"] = float64(len(lm.writes)) / lm.elapsed.Seconds()
	m["e2e.update_p50_us"] = percentile(lm.writes, 0.50) / 1e3
	m["e2e.update_p99_us"] = percentile(lm.writes, 0.99) / 1e3
	res.Samples["e2e.update_p50_us"], res.Samples["e2e.update_p99_us"] = len(lm.writes), len(lm.writes)
	res.Samples["lsm.flush_p50_ms"] = len(lm.flushes)
}

func stageMedian(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// engineOf names the storage engine a workload's served records live on.
func engineOf(workload string) string {
	switch workload {
	case "srci_filter":
		return "disk"
	case "batch_cluster":
		return "sorted"
	}
	return "map"
}

const probeIters = 20_000

func perIter(start time.Time, n int) float64 { return float64(time.Since(start)) / float64(n) }

// sink keeps probe results alive so the calls are not optimised away.
var sink byte

// probePRF times Hasher.Eval on a 32-byte input and Hasher.Derive.
func probePRF() (evalNs, deriveNs float64) {
	var key prf.Key
	h := prf.NewHasher(key)
	in := make([]byte, prf.KeySize)
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		in[0] = byte(i)
		out := h.Eval(in)
		sink ^= out[0]
	}
	evalNs = perIter(start, probeIters)
	start = time.Now()
	for i := 0; i < probeIters; i++ {
		out := h.Derive("keywords/primary")
		sink ^= out[0]
	}
	return evalNs, perIter(start, probeIters)
}

// probeDPRF times Key.Delegate and Expander.ExpandInto on ranges drawn
// the way wide_uniform draws them.
func probeDPRF(seed int64) (delegateNsPerToken, expandNsPerLeaf float64) {
	dom := cover.Domain{Bits: 20}
	var s [dprf.Size]byte
	binary.LittleEndian.PutUint64(s[:], uint64(seed))
	key := dprf.KeyFromSeed(dom, s)
	gen := wideRanges(clientRand(seed, tracedClient), tracedClient)
	var tokens []dprf.Token
	var delegate time.Duration
	for i := 0; i < 64; i++ {
		q, _ := gen()
		start := time.Now()
		ts, err := key.Delegate(q.Lo, q.Hi, cover.BRCTechnique)
		delegate += time.Since(start)
		if err != nil {
			return 0, 0
		}
		tokens = append(tokens, ts...)
	}
	e := dprf.NewExpander()
	var buf []dprf.Value
	leaves := 0
	start := time.Now()
	for _, t := range tokens {
		buf = e.ExpandInto(buf[:0], t)
		leaves += len(buf)
	}
	return float64(delegate) / float64(len(tokens)), perIter(start, leaves)
}

// probeStorage times Backend.Get on the named engine: 20,000 records
// under 32-byte keys, probed in random order, every probe a hit.
func probeStorage(engine string, seed int64) float64 {
	eng, err := storage.ByName(engine)
	if err != nil {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, probeIters)
	b := eng.NewBuilder(32, len(keys))
	for i := range keys {
		keys[i] = make([]byte, 32)
		rng.Read(keys[i])
		if err := b.Put(keys[i], keys[i][:16]); err != nil {
			return 0
		}
	}
	backend, err := b.Seal()
	if err != nil {
		return 0
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	start := time.Now()
	for _, k := range keys {
		v, _ := backend.Get(k)
		sink ^= v[0]
	}
	return perIter(start, len(keys))
}

// probeDecrypt times the decryption of one stored tuple: an 8-byte value
// plus a 16-byte payload under AES-CBC.
func probeDecrypt() float64 {
	var key secenc.Key
	ct, err := secenc.EncryptCBC(key, make([]byte, 8+dynPayloadLen), nil)
	if err != nil {
		return 0
	}
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		out, _ := secenc.DecryptCBC(key, ct)
		sink ^= out[0]
	}
	return perIter(start, probeIters)
}

// printLedger renders a run's stage table.
func printLedger(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "%s: per-op ledger from the traced pass (self time; root stages are the unattributed remainder)\n", res.Workload)
	for _, r := range res.Stages {
		fmt.Fprintf(w, "  %-22s %-12s %10.0f ns/op  %5.1f%%  (%d calls)\n", r.Name, r.Layer, r.SelfNs, 100*r.Share, r.Calls)
	}
}
