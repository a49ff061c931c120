package transport

import (
	"rsse/internal/obs"
	"rsse/internal/sse"
)

// The transport layer instruments itself against the process-wide
// obs.Default registry (the Prometheus default-registerer model): every
// Server and every ServeConn loop in the process shares one metrics
// surface, which is what rsse-server -ops exposes. All hot-path touches
// are pre-resolved atomic metrics — zero allocations per request, see
// the obs package's allocs guard and this package's
// BenchmarkRemoteSearchRoundTrip.

// opLabel maps wire op bytes to their metric label; index 0 doubles as
// the unknown-op bucket, which also takes the retired ops 3, 5 and 9.
var opLabel = [opFetchMany + 1]string{
	0:           "unknown",
	opMeta:      "meta",
	opSearch:    "search",
	opNames:     "names",
	opUpdate:    "update",
	opDynFlush:  "dyn_flush",
	opDynQuery:  "dyn_query",
	opFetchMany: "fetch_many",
}

// opIndex maps a wire op byte to its opLabel slot, 0 for unknown ops.
func opIndex(op byte) int {
	if int(op) >= len(opLabel) || opLabel[op] == "" {
		return 0
	}
	return int(op)
}

// serverMetrics is the transport's metric set, children pre-resolved
// per op so request accounting is array indexing plus atomic adds.
type serverMetrics struct {
	requests [len(opLabel)]*obs.Counter
	errors   [len(opLabel)]*obs.Counter
	latency  [len(opLabel)]*obs.Histogram

	bytesIn  *obs.Counter
	bytesOut *obs.Counter

	queueDepth *obs.Gauge
	queueWait  *obs.Histogram
	workers    *obs.Gauge

	shed      *obs.Counter
	overload  *obs.Counter
	frameErrs *obs.Counter
	panics    *obs.Counter

	conns      *obs.Gauge
	connsTotal *obs.Counter
}

// tm is the package's shared metric set. obs.Default is initialized
// before this package's vars (obs is an import), so plain var init is
// safe.
var tm = newServerMetrics(obs.Default)

func newServerMetrics(r *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		bytesIn: r.CounterVec("rsse_request_bytes_total",
			"Frame bytes moved by the serving transport, by direction.", "dir").With("in"),
		queueDepth: r.Gauge("rsse_dispatch_queue_depth",
			"Requests parsed but not yet executing, across all connections."),
		queueWait: r.Histogram("rsse_dispatch_queue_wait_seconds",
			"Time requests spend queued before a dispatch worker picks them up."),
		workers: r.Gauge("rsse_dispatch_workers",
			"Live dispatch workers across all connections (saturation: compare against conns × 32)."),
		shed: r.Counter("rsse_requests_shed_total",
			"Requests refused with an overload response instead of executing (shutdown drain)."),
		overload: r.Counter("rsse_overload_responses_total",
			"Overload response frames written (one per shed request that reached the wire)."),
		frameErrs: r.Counter("rsse_frame_errors_total",
			"Connections dropped for malformed framing (oversized frame, torn header, bad request)."),
		panics: r.Counter("rsse_handler_panics_total",
			"Request handler panics contained to an error response (each also logs its stack at Error)."),
		conns: r.Gauge("rsse_open_conns",
			"Currently accepted connections."),
		connsTotal: r.Counter("rsse_conns_accepted_total",
			"Connections accepted since process start."),
	}
	m.bytesOut = r.CounterVec("rsse_request_bytes_total",
		"Frame bytes moved by the serving transport, by direction.", "dir").With("out")
	reqs := r.CounterVec("rsse_requests_total",
		"Requests executed, by wire op.", "op")
	errs := r.CounterVec("rsse_request_errors_total",
		"Requests answered with an error response, by wire op.", "op")
	lat := r.HistogramVec("rsse_request_seconds",
		"Server-side request execution latency (queue wait excluded), by wire op.", "op")
	for op, label := range opLabel {
		if label == "" {
			continue // a retired op byte: opIndex never returns it
		}
		m.requests[op] = reqs.With(label)
		m.errors[op] = errs.With(label)
		m.latency[op] = lat.With(label)
	}
	// The derived-state stag cache (internal/sse/kernel.go) is
	// process-wide and counts in its own atomics, read here at scrape
	// time. sse.ResetKernelCache (tests, benchmark phases) zeroes all three.
	r.CounterFunc("rsse_stag_cache_hits_total",
		"Stag lookups answered from the derived-state cache (key schedule and cached labels skipped).",
		func() uint64 { hits, _ := sse.KernelCacheStats(); return hits })
	r.CounterFunc("rsse_stag_cache_misses_total",
		"Stag lookups that derived their search state: one-shot stags (Constant leaves, empty LSM epoch tokens) and first and second sights.",
		func() uint64 { _, misses := sse.KernelCacheStats(); return misses })
	r.CounterFunc("rsse_stag_cache_admissions_total",
		"Misses that published a cache entry: the stag had missed on its slot before (second-sight admission).",
		sse.KernelCacheAdmissions)
	return m
}

// indexObs is one served index's per-name metric set, resolved once at
// registration so the request path pays no label lookups. The leakage
// families quantify, from the server's own vantage point, exactly what
// the schemes' formal leakage concedes — making the deployed leakage
// profile continuously measurable and comparable against the
// client-side workload.LeakageCounters.
type indexObs struct {
	queries *obs.Counter
	fetches *obs.Counter

	tokens     *obs.Counter
	tokenBytes *obs.Counter
	respItems  *obs.Counter
	rawIDs     *obs.Counter

	resident *obs.Gauge
}

var (
	ixQueries = obs.Default.CounterVec("rsse_index_queries_total",
		"Search frames executed, per served index (one per protocol round, a batch round's included).", "index")
	ixFetches = obs.Default.CounterVec("rsse_index_fetches_total",
		"Raw ids fetched, per served index (a fetch-many frame counts once per id).", "index")
	ixTokens = obs.Default.CounterVec("rsse_server_leakage_tokens_total",
		"Search tokens (stags + GGM) received, per served index — the query-size leakage.", "index")
	ixTokenBytes = obs.Default.CounterVec("rsse_server_leakage_token_bytes_total",
		"Serialized token bytes received, per served index.", "index")
	ixRespItems = obs.Default.CounterVec("rsse_server_leakage_response_items_total",
		"Result items shipped back, per served index — the access-pattern volume.", "index")
	ixRawIDs = obs.Default.CounterVec("rsse_server_leakage_rawid_fetches_total",
		"Raw tuple ids fetched, per served index.", "index")
	ixUpdates = obs.Default.CounterVec("rsse_server_leakage_update_ops_total",
		"Update operations received, per writable store.", "name")
	ixResident = obs.Default.GaugeVec("rsse_index_resident_bytes",
		"Resident (heap or mapped-and-touched) bytes of a loaded index.", "index")
	ixOpenSeconds = obs.Default.Histogram("rsse_index_open_seconds",
		"Lazy-open latency of registered index files (mmap + checksum).")
)

// newIndexObs resolves the per-index children for name.
func newIndexObs(name string) *indexObs {
	return &indexObs{
		queries:    ixQueries.With(name),
		fetches:    ixFetches.With(name),
		tokens:     ixTokens.With(name),
		tokenBytes: ixTokenBytes.With(name),
		respItems:  ixRespItems.With(name),
		rawIDs:     ixRawIDs.With(name),
		resident:   ixResident.With(name),
	}
}
