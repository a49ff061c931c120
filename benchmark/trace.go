package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// Stage names. Spans inside the program are a later issue and should
// reuse these; here every span is recorded from the benchmark's own
// files, around the calls into each layer's exported functions.
const (
	stQuery          = "query"                // one whole read op, as the owner sees it
	stUpdate         = "update"               // one write op: submit → durable ack
	stFlush          = "flush"                // one explicit LSM flush
	stCover          = "cover"                // cover.Cover / PlanBatch / TDAG.SRC
	stTrapdoor       = "core.trapdoor"        // Client.Trapdoor with the memo off
	stEncode         = "core.encode"          // Trapdoor.MarshalBinary
	stSearchRemote   = "transport.search"     // one remote search round
	stSearchLocal    = "core.search"          // the server executing the search request, by its own timer
	stFetchLocal     = "storage.fetch"        // the server executing the fetch request, by its own timer
	stLSMApply       = "lsm.apply"            // the server executing the update request, by its own timer
	stLSMFlush       = "lsm.flush"            // the server executing the flush request, by its own timer
	stResponseEncode = "core.response_encode" // Response.MarshalBinary
	stDecode         = "core.decode"          // UnmarshalResponse
	stFetchFilter    = "core.fetch_filter"    // first Fetch → end of the query
	stFetchRemote    = "transport.fetch"      // one remote Fetch round trip
	stRoundTrip      = "transport.roundtrip"  // one update, flush or query round trip to the write gateway
	stDecrypt        = "secenc.decrypt"       // Client.FetchTuple on the ciphertext just fetched
	stSubquery       = "shard.subquery"       // one shard's share of a cluster op
	stWALAppend      = "wal.append"           // Log.Append of the same record
	stLSMQuery       = "lsm.query"            // the server executing the dynamic query, by its own timer
)

// span is one timed call. Start and End are nanoseconds since the
// tracer was created. A placed span (Replica false) carries the
// timestamps of the call it wraps, inside its parent's interval. A
// replica span re-executes part of its parent's work right after the op,
// on the same inputs — the only way to see inside a remote call without
// instrumenting the program — so only its duration is meaningful.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for an op's root
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Replica bool   `json:"replica,omitempty"`
	// Reported marks a placed span whose duration the program measured
	// itself (its request-latency histogram, QueryStats, BatchStats); the
	// benchmark knows how long it took but not where inside the parent, and
	// centres it.
	Reported bool `json:"reported,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	op    int
}

func newTracer() *tracer {
	// Sized up front so that recording a span never reallocates inside a
	// timed region.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a placed span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// reported records a span of duration dur centred inside parent.
func (t *tracer) reported(name string, parent int, dur int64) int {
	p := t.spans[parent]
	dur = min(dur, p.End-p.Start)
	start := p.Start + (p.End-p.Start-dur)/2
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: start, End: start + dur, Reported: true})
	return id
}

// replica times fn and records it as a replica child of parent.
func (t *tracer) replica(name string, parent int, fn func()) time.Duration {
	start := t.now()
	fn()
	end := t.now()
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name, Start: start, End: end, Replica: true})
	return time.Duration(end - start)
}

func (t *tracer) nextOp() { t.op++ }

// stageCost is one row of the ledger.
type stageCost struct {
	Name   string  `json:"stage"`
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	SelfNs float64 `json:"self_ns_per_op"`
	Share  float64 `json:"share_of_op"`
}

// selfTimes computes every span's self time: its duration minus the part
// of its interval its placed children cover (a union, so parallel
// children count once) minus the summed durations of its replica
// children, never below zero.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	placed := make(map[int][]iv)
	replicas := make(map[int]int64)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		if s.Replica {
			replicas[s.Parent] += s.End - s.Start
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			placed[s.Parent] = append(placed[s.Parent], iv{a, b})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := placed[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, edge int64
		for _, v := range ivs {
			if v.b <= edge {
				continue
			}
			covered += v.b - max(v.a, edge)
			edge = v.b
		}
		self[i] = max(0, s.End-s.Start-covered-replicas[i])
	}
	return self
}

// layerOf maps a stage to the module whose code it times.
func layerOf(stage string) string {
	if layer, _, ok := strings.Cut(stage, "."); ok {
		return layer
	}
	switch stage {
	case stQuery, stUpdate, stFlush:
		return "unattributed"
	}
	return stage
}

// ledger aggregates self times per stage over ops root ops. The root
// stages' self time is what no named stage explains; Share is relative
// to the summed root durations.
func ledger(spans []span, ops int) (rows []stageCost, rootTotal int64) {
	self := selfTimes(spans)
	byName := make(map[string]*stageCost)
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &stageCost{Name: s.Name, Layer: layerOf(s.Name)}
			byName[s.Name] = r
		}
		r.Calls++
		r.SelfNs += float64(self[i])
		if s.Parent < 0 {
			rootTotal += s.End - s.Start
		}
	}
	for _, r := range byName {
		if rootTotal > 0 {
			r.Share = r.SelfNs / float64(rootTotal)
		}
		r.SelfNs /= float64(max(ops, 1))
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNs > rows[j].SelfNs })
	return rows, rootTotal
}

// sumStage returns the summed durations of every span called name.
func sumStage(spans []span, name string) (total int64, calls int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
			calls++
		}
	}
	return total, calls
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload       string      `json:"workload"`
	Seed           int64       `json:"seed"`
	Ops            int         `json:"ops"`
	UntracedMeanNs float64     `json:"untraced_mean_ns"`
	TracedMeanNs   float64     `json:"traced_mean_ns"`
	Stages         []stageCost `json:"stages"`
	Spans          []span      `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	blob, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
