package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"rsse"
	"rsse/internal/obs"
)

var processStart = time.Now()

// nowNs is a monotonic clock reading in nanoseconds.
func nowNs() int64 { return int64(time.Since(processStart)) }

// runConfig is one run of one workload: what the driver's command line
// (or the set runner) asks for.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measured interval
	trace    bool    // also run the traced pass and compute the per-layer metrics
	smoke    bool    // datasets ÷ 10, one set-up, short passes: for tests
	outDir   string  // where trace-<workload>.json goes
	workRoot string  // scratch space for index files and store directories
}

// runResult is everything one run measured.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Env        environment        `json:"environment"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"ops_attempted"`
	Failed     int64              `json:"ops_failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"` // sample count behind each timing metric
	StreamHash string             `json:"op_stream_hash"`
	Stages     []stageCost        `json:"stages,omitempty"`
}

const (
	setupsPerRun  = 3
	loadClients   = 2
	warmup        = 2 * time.Second
	sampleEvery   = 64 // measured-interval answers compared with the oracle: one in 64
	latencyBuffer = 1 << 20
)

// attempt is one op of a session, run and timed. It failed when it
// errored or was shed or, where the caller asked for the check, when a
// read disagreed with the oracle.
type attempt struct {
	op     *op
	counts counts
	took   time.Duration
	err    error
	failed bool
}

// try draws the session's next op and runs it.
func try(s session, or oracle, check bool) attempt {
	o := s.next()
	token := or.begin()
	start := time.Now()
	ids, c, err := s.do(o)
	a := attempt{op: o, counts: c, took: time.Since(start), err: err}
	a.failed = err != nil || (check && o.kind == opRead && !or.check(token, o, ids))
	return a
}

// tally is the failure accounting of a run or of a part of it.
type tally struct {
	attempted, failed int64
	firstErr          error
}

func (t *tally) add(a attempt) {
	t.attempted++
	if a.failed {
		t.failed++
	}
	if t.firstErr == nil {
		t.firstErr = a.err
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// clientStats is what one closed-loop client recorded over an interval.
type clientStats struct {
	tally
	reads, writes, flushes []uint32 // latencies in ns (saturating)
}

func (c *clientStats) ops() int64 { return int64(len(c.reads) + len(c.writes)) }

func saturate(d time.Duration) uint32 {
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// loop drives one session closed-loop until the deadline: the next op is
// drawn only after the previous answer arrived. One answer in sampleEvery
// is compared with the oracle.
func loop(s session, or oracle, deadline time.Time) *clientStats {
	st := &clientStats{reads: make([]uint32, 0, latencyBuffer), writes: make([]uint32, 0, latencyBuffer)}
	for n := 0; time.Now().Before(deadline); n++ {
		a := try(s, or, n%sampleEvery == 0)
		st.add(a)
		switch lat := saturate(a.took); a.op.kind {
		case opRead:
			st.reads = append(st.reads, lat)
		case opFlush:
			st.flushes = append(st.flushes, lat)
		default:
			st.writes = append(st.writes, lat)
		}
	}
	return st
}

// hashOp folds an op into the op-stream hash.
func hashOp(h interface{ Write([]byte) (int, error) }, o *op) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(o.kind))
	put(o.id)
	put(o.value)
	for _, q := range o.ranges {
		put(q.Lo)
		put(q.Hi)
	}
}

// percentile of an ascending slice, in the slice's unit.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return float64(sorted[min(i, len(sorted)-1)])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// scrape reads the process-wide metrics registry the serving layers
// instrument themselves against.
func scrape() map[string]float64 {
	var buf bytes.Buffer
	if err := obs.Default.WriteText(&buf); err != nil {
		return nil
	}
	m, _ := obs.ParseText(&buf)
	return m
}

// sumPrefix adds up every series of one family.
func sumPrefix(m map[string]float64, family string) float64 {
	var total float64
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

func runWorkload(cfg runConfig) (*runResult, error) {
	def, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &runResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Env: readEnvironment(), Metrics: map[string]float64{}, Samples: map[string]int{},
	}
	p := params{seed: cfg.seed, scale: 1}
	setups, warm, verifyOps, tracedOps := setupsPerRun, warmup, def.verifyOps, def.tracedOps
	if cfg.smoke {
		p.scale, setups, warm = 10, 1, 200*time.Millisecond
		verifyOps, tracedOps = max(verifyOps/4, 100), max(tracedOps/5, 50)
		if def.name == "mixed_dynamic" {
			verifyOps = def.verifyOps // must reach the first flush
		}
	}
	setup, err := def.prepare(p)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workRoot, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times; the last one is kept and measured.
	var (
		dep        *deployment
		sessions   [loadClients]session
		setupTimes []float64
	)
	for i := 0; i < setups; i++ {
		work, err := os.MkdirTemp(cfg.workRoot, def.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(work)
		start := time.Now()
		if dep, err = setup(work); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for c := range sessions {
			if sessions[c], err = dep.open(c); err != nil {
				return nil, fmt.Errorf("set-up: client %d: %w", c, err)
			}
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i == setups-1 {
			break
		}
		for _, s := range sessions {
			s.close()
		}
		if err := dep.shutdown(); err != nil {
			return nil, err
		}
		dep = nil
		os.RemoveAll(work)
		runtime.GC()
		debug.FreeOSMemory()
	}
	defer func() {
		for _, s := range sessions {
			s.close()
		}
		dep.shutdown()
	}()
	m := res.Metrics
	m["setup_s"] = median(setupTimes)
	res.Samples["setup_s"] = len(setupTimes)
	m["index_bytes_per_tuple"] = float64(dep.indexBytes) / float64(dep.tuples)

	// Verification pass: the first ops of the seeded streams, the two
	// clients taking turns, every answer compared with the oracle. The
	// counts taken here depend on the seed alone.
	var (
		verified counts
		vOps     int64
		total    tally
	)
	hash := fnv.New64a()
	wireBefore := dep.wire.total()
	for i := 0; i < verifyOps; i++ {
		a := try(sessions[i%loadClients], dep.oracle, true)
		total.add(a)
		hashOp(hash, a.op)
		verified.add(a.counts)
		if a.op.kind != opFlush {
			vOps++
		}
	}
	res.StreamHash = fmt.Sprintf("%016x", hash.Sum64())
	verifiedWire := float64(dep.wire.total()-wireBefore) / float64(vOps)

	// account adds an interval's ops to the run's failure accounting.
	account := func(stats []*clientStats) (ops int64) {
		for _, st := range stats {
			ops += st.ops()
			total.merge(st.tally)
		}
		return ops
	}

	// Warm-up: caches fill, lazy opens finish.
	account(runClients(sessions[:], dep.oracle, warm))

	// Measured interval, tracing off.
	var ms0, ms1 runtime.MemStats
	obs0 := scrape()
	hits0, misses0 := rsse.SearchKernelCacheStats()
	memoHits0, memoMisses0 := memoStats(sessions[:])
	epochBytes0 := epochBytes(dep)
	runtime.ReadMemStats(&ms0)
	wireBefore = dep.wire.total()
	cpu0 := cpuTime()
	start := time.Now()
	stats := runClients(sessions[:], dep.oracle, time.Duration(cfg.seconds*float64(time.Second)))
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	wire := dep.wire.total() - wireBefore
	runtime.ReadMemStats(&ms1)
	obs1 := scrape()

	var reads, writes, flushes []uint32
	for _, st := range stats {
		reads = append(reads, st.reads...)
		writes = append(writes, st.writes...)
		flushes = append(flushes, st.flushes...)
	}
	ops := account(stats)
	if ops == 0 || len(reads) == 0 {
		return nil, fmt.Errorf("measured interval completed no ops (first error: %v)", total.firstErr)
	}
	slices.Sort(reads)
	slices.Sort(writes)
	slices.Sort(flushes)
	m["qps"] = float64(ops) / elapsed.Seconds()
	// Latency and CPU per op are measured on every run but gated on none:
	// see "Repeatability" in README.md.
	m["e2e.query_p50_us"] = percentile(reads, 0.50) / 1e3
	m["e2e.query_p99_us"] = percentile(reads, 0.99) / 1e3
	m["e2e.cpu_us_per_query"] = float64(cpu.Microseconds()) / float64(ops)
	m["allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	m["wire_bytes_per_query"] = float64(wire) / float64(ops)
	m["rss_mb"] = peakRSSMiB()
	res.Samples["e2e.query_p50_us"], res.Samples["e2e.query_p99_us"] = len(reads), len(reads)
	res.Samples["qps"] = int(ops)

	if cfg.trace {
		lm := &layerInputs{
			def: def, dep: dep, verified: verified, vOps: vOps, verifiedWire: verifiedWire, ops: ops, elapsed: elapsed,
			obs: obs.Delta(obs0, obs1), gc0: &ms0, gc1: &ms1,
			writes: writes, flushes: flushes,
			epochBytes: epochBytes(dep) - epochBytes0,
		}
		hits1, misses1 := rsse.SearchKernelCacheStats()
		lm.stagHits, lm.stagMisses = hits1-hits0, misses1-misses0
		memoHits1, memoMisses1 := memoStats(sessions[:])
		lm.memoHits, lm.memoMisses = memoHits1-memoHits0, memoMisses1-memoMisses0
		if res.Stages, err = tracedPass(cfg, &total, lm, tracedOps); err != nil {
			return nil, err
		}
		layerMetrics(res, lm)
	}

	if dep.finish != nil {
		attempted, failed, err := dep.finish()
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		total.merge(tally{attempted: int64(attempted), failed: int64(failed)})
	}
	res.Attempted, res.Failed, res.Correct = total.attempted, total.failed, total.failed == 0
	m["e2e.error_ratio"] = float64(res.Failed) / float64(res.Attempted)
	if total.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failed op: %v\n", def.name, total.firstErr)
	}
	return res, nil
}

// runClients runs every session closed-loop for d, concurrently, and
// waits for all of them.
func runClients(sessions []session, or oracle, d time.Duration) []*clientStats {
	out := make([]*clientStats, len(sessions))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = loop(s, or, deadline)
		}()
	}
	wg.Wait()
	return out
}

func memoStats(sessions []session) (hits, misses uint64) {
	for _, s := range sessions {
		h, m := s.memo()
		hits += h
		misses += m
	}
	return hits, misses
}

// epochBytes is how many bytes of epoch files a dynamic deployment's
// flushes have written so far; zero for the static workloads.
func epochBytes(dep *deployment) int64 {
	if dep.dyn == nil {
		return 0
	}
	return dep.dyn.epochBytes
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}
