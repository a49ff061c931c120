package main

import (
	"context"
	"math/rand"
	"path/filepath"

	"rsse"
	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/obs"
	"rsse/internal/transport"
	"rsse/internal/wal"
)

// The traced pass: one client replays ops of the workload while a span
// is recorded around each call into a layer. Owner-side calls are timed
// here. What the server did inside a round trip is taken from the
// program's own per-op request timer (rsse_request_seconds, queue wait
// excluded) — exact, since this client is the only one — rather than
// from a local Index.Search on the same trapdoor: owner and server share
// a process, so a replica would find the stags the real search has just
// cached and report the hit path where the server took the miss path.

// requestTimer is the server's execution-time histogram for one wire op.
func requestTimer(op string) *obs.Histogram {
	return obs.Default.HistogramVec("rsse_request_seconds", "", "op").With(op)
}

// traceTotals are sums a traced session keeps beside its spans.
type traceTotals struct {
	trapdoorNs int64 // Client.Trapdoor with the memo off, every op
	items      int64 // response items of every search of the pass
	epochs     int64 // active LSM epochs summed over reads
	reads      int64
	walBytes   int64 // scratch WAL size after the pass
	walAppends int64
}

type tracedSession interface {
	session
	totals() traceTotals
}

// tracedServer is the core.Server the traced owner runs its protocol
// against: the transport handle, with a span around every round trip.
type tracedServer struct {
	h          *transport.IndexHandle
	tr         *tracer
	searchTime *obs.Histogram
	fetchTime  *obs.Histogram

	root, filter int
	searches     []tracedSearch
	fetches      []tracedFetch
}

type tracedSearch struct {
	span int
	t    *core.Trapdoor
	resp *core.Response
	exec int64
}

type tracedFetch struct {
	span int
	id   core.ID
	ct   []byte
	exec int64
}

func (s *tracedServer) startOp(root int) { s.root, s.filter = root, -1 }

func (s *tracedServer) Meta() (core.IndexMeta, error) { return s.h.Meta() }

func (s *tracedServer) Search(t *core.Trapdoor) (*core.Response, error) {
	return s.SearchContext(context.Background(), t)
}

func (s *tracedServer) SearchContext(ctx context.Context, t *core.Trapdoor) (*core.Response, error) {
	before := s.searchTime.Sum()
	id := s.tr.begin(stSearchRemote, s.root)
	resp, err := s.h.SearchContext(ctx, t)
	s.tr.end(id)
	s.searches = append(s.searches, tracedSearch{id, t, resp, int64(s.searchTime.Sum() - before)})
	return resp, err
}

func (s *tracedServer) Fetch(id core.ID) ([]byte, bool, error) {
	return s.FetchContext(context.Background(), id)
}

func (s *tracedServer) FetchContext(ctx context.Context, id core.ID) ([]byte, bool, error) {
	if s.filter < 0 {
		s.filter = s.tr.begin(stFetchFilter, s.root)
	}
	before := s.fetchTime.Sum()
	sp := s.tr.begin(stFetchRemote, s.filter)
	ct, ok, err := s.h.FetchContext(ctx, id)
	s.tr.end(sp)
	s.fetches = append(s.fetches, tracedFetch{sp, id, ct, int64(s.fetchTime.Sum() - before)})
	return ct, ok, err
}

// ciphertext is a core.Server that holds one fetched ciphertext, so that
// Client.FetchTuple on it times the decryption alone.
type ciphertext []byte

func (c ciphertext) Meta() (core.IndexMeta, error)                 { return core.IndexMeta{}, nil }
func (c ciphertext) Search(*core.Trapdoor) (*core.Response, error) { return &core.Response{}, nil }
func (c ciphertext) Fetch(core.ID) ([]byte, bool, error)           { return c, true, nil }

// tracedIndex replays an index workload's ops through the scheme layer's
// own client (the object rsse.Client wraps) and the transport handle, so
// that it can stand between the two.
type tracedIndex struct {
	rangeStream
	tr   *tracer
	w    indexWorkload
	dom  cover.Domain
	cl   *core.Client // the owner running the protocol
	twin *core.Client // same keys, memo off: what a derivation costs
	conn *transport.Conn
	srv  *tracedServer
	done []tracedQuery
	sum  traceTotals
}

// tracedQuery is what a traced op leaves behind for the replicas: they
// run once the replay is over, so that the traced ops follow each other
// as closely as the untraced ones and tracing costs only its spans.
type tracedQuery struct {
	op, root, filter int
	q                rsse.Range
	derived          bool // the owner derived the trapdoor (memo off or missed)
	searches         [2]int
	fetches          [2]int
}

func openTracedIndex(tr *tracer, w indexWorkload, key []byte, seed int64, addr string) (session, error) {
	dom, err := cover.NewDomain(w.bits)
	if err != nil {
		return nil, err
	}
	owner := func(memo int) (*core.Client, error) {
		return core.NewClient(w.kind, dom, core.Options{
			MasterKey: key, TrapdoorMemo: memo,
			Rand: rand.New(rand.NewSource(seed + tracedClient + 1)),
		})
	}
	cl, err := owner(w.memo)
	if err != nil {
		return nil, err
	}
	twin, err := owner(0)
	if err != nil {
		return nil, err
	}
	conn, err := transport.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tracedIndex{
		tr: tr, w: w, dom: dom, cl: cl, twin: twin, conn: conn,
		srv: &tracedServer{h: conn.Index(servedName), tr: tr,
			searchTime: requestTimer("search"), fetchTime: requestTimer("fetch")},
		rangeStream: rangeStream{gen: w.ranges(clientRand(seed, tracedClient), tracedClient), reset: cl.ResetHistory},
	}, nil
}

func (s *tracedIndex) do(o *op) ([][]uint64, counts, error) {
	q, tr := o.ranges[0], s.tr
	_, missesBefore := s.cl.TrapdoorMemoStats()
	rec := tracedQuery{op: tr.op, q: q, searches: [2]int{len(s.srv.searches)}, fetches: [2]int{len(s.srv.fetches)}}
	rec.root = tr.begin(stQuery, -1)
	s.srv.startOp(rec.root)
	res, err := s.cl.QueryServerContext(context.Background(), s.srv, q)
	tr.end(rec.root)
	if err != nil {
		return nil, counts{}, err
	}
	if rec.filter = s.srv.filter; rec.filter >= 0 {
		tr.spans[rec.filter].End = tr.spans[rec.root].End
	}
	_, misses := s.cl.TrapdoorMemoStats()
	rec.derived = s.w.memo == 0 || misses > missesBefore
	rec.searches[1], rec.fetches[1] = len(s.srv.searches), len(s.srv.fetches)
	s.done = append(s.done, rec)
	return [][]uint64{res.Matches}, queryCounts(s.w.kind, &res.Stats), nil
}

// replicas re-executes, for every traced op, the calls whose cost hides
// inside a span, and hangs them below it.
func (s *tracedIndex) replicas() {
	tr := s.tr
	for _, rec := range s.done {
		tr.op = rec.op
		tr.replica(stCover, rec.root, func() { s.cover(rec.q) })
		if rec.derived {
			s.sum.trapdoorNs += int64(tr.replica(stTrapdoor, rec.root, func() { s.twin.Trapdoor(rec.q) }))
		} else {
			// A memo hit costs the owner a map lookup, left in the op's
			// unattributed remainder; the derivation is still timed, as
			// the unit cost the memo saves.
			start := tr.now()
			s.twin.Trapdoor(rec.q)
			s.sum.trapdoorNs += tr.now() - start
		}
		for _, sr := range s.srv.searches[rec.searches[0]:rec.searches[1]] {
			s.sum.items += int64(sr.resp.Items())
			exec := tr.reported(stSearchLocal, sr.span, sr.exec)
			var wire []byte
			tr.replica(stResponseEncode, exec, func() { wire, _ = sr.resp.MarshalBinary() })
			tr.replica(stEncode, sr.span, func() { sr.t.MarshalBinary() })
			tr.replica(stDecode, sr.span, func() { core.UnmarshalResponse(wire) })
		}
		for _, f := range s.srv.fetches[rec.fetches[0]:rec.fetches[1]] {
			tr.reported(stFetchLocal, f.span, f.exec)
			tr.replica(stDecrypt, rec.filter, func() { s.cl.FetchTuple(ciphertext(f.ct), f.id) })
		}
	}
	s.done = nil
}

// cover recomputes the first round's cover the way the scheme does.
func (s *tracedIndex) cover(q rsse.Range) {
	switch s.w.kind {
	case rsse.LogarithmicSRC, rsse.LogarithmicSRCi:
		cover.NewTDAG(s.dom).SRC(q.Lo, q.Hi)
	case rsse.LogarithmicURC, rsse.ConstantURC:
		cover.Cover(s.dom, q.Lo, q.Hi, cover.URCTechnique)
	default:
		cover.Cover(s.dom, q.Lo, q.Hi, cover.BRCTechnique)
	}
}

func (s *tracedIndex) memo() (uint64, uint64) { return s.cl.TrapdoorMemoStats() }
func (s *tracedIndex) totals() traceTotals    { s.replicas(); return s.sum }
func (s *tracedIndex) close() error           { return s.conn.Close() }

// tracedCluster wraps a cluster session: the scatter-gather runs inside
// rsse.Cluster, so its per-shard spans come from the ClusterBatchResult's
// own accounting and the servers' request timers.
type tracedCluster struct {
	*clusterSession
	tr         *tracer
	dom        cover.Domain
	batchTime  *obs.Histogram
	streamTime *obs.Histogram
	done       []tracedBatch
	sum        traceTotals
}

type tracedBatch struct {
	op, root int
	ranges   []cover.Interval
}

func newTracedCluster(tr *tracer, s *clusterSession) *tracedCluster {
	return &tracedCluster{clusterSession: s, tr: tr, dom: cover.Domain{Bits: clusterBits},
		batchTime: requestTimer("batch"), streamTime: requestTimer("batch_stream")}
}

func (s *tracedCluster) do(o *op) ([][]uint64, counts, error) {
	tr := s.tr
	before := s.batchTime.Sum() + s.streamTime.Sum()
	root := tr.begin(stQuery, -1)
	res, err := s.query(o)
	tr.end(root)
	if err != nil {
		return nil, counts{}, err
	}
	exec := int64(s.batchTime.Sum() + s.streamTime.Sum() - before)
	s.sum.items += int64(res.Stats.ResponseItems)

	intervals := make([]cover.Interval, len(o.ranges))
	for i, q := range o.ranges {
		intervals[i] = cover.Interval{Lo: q.Lo, Hi: q.Hi}
	}
	s.done = append(s.done, tracedBatch{tr.op, root, intervals})
	var serverTotal int64
	for _, sh := range res.Shards {
		serverTotal += int64(sh.Stats.ServerTime)
	}
	for _, sh := range res.Shards {
		sub := tr.reported(stSubquery, root, int64(sh.Stats.OwnerTime+sh.Stats.ServerTime))
		search := tr.reported(stSearchRemote, sub, int64(sh.Stats.ServerTime))
		if serverTotal > 0 {
			// The shards' requests ran concurrently on the one server; its
			// execution time is shared out by each shard's round-trip time.
			tr.reported(stSearchLocal, search, exec*int64(sh.Stats.ServerTime)/serverTotal)
		}
	}
	ids := make([][]uint64, len(res.Results))
	for i, r := range res.Results {
		ids[i] = r.Matches
	}
	return ids, batchCounts(res), nil
}

func (s *tracedCluster) totals() traceTotals {
	for _, rec := range s.done {
		s.tr.op = rec.op
		s.tr.replica(stCover, rec.root, func() { cover.PlanBatch(s.dom, rec.ranges, cover.URCTechnique) })
	}
	s.done = nil
	return s.sum
}

// tracedDynamic wraps the single-client dynamic session. Every logged
// write is also appended to a scratch WAL under the same fsync policy:
// the wal layer's share of an update.
type tracedDynamic struct {
	*dynamicSession
	tr                               *tracer
	log                              *wal.Log
	seq                              uint64
	updateTime, flushTime, queryTime *obs.Histogram
	done                             []tracedWrite
	sum                              traceTotals
}

type tracedWrite struct {
	op, server int
	rec        wal.Record
}

func newTracedDynamic(tr *tracer, s *dynamicSession, work string) (*tracedDynamic, error) {
	log, _, err := wal.Open(filepath.Join(work, "trace-wal.log"), wal.WithSyncEvery(dynSyncEvery))
	if err != nil {
		return nil, err
	}
	return &tracedDynamic{dynamicSession: s, tr: tr, log: log,
		updateTime: requestTimer("update"), flushTime: requestTimer("dyn_flush"), queryTime: requestTimer("dyn_query")}, nil
}

func (s *tracedDynamic) do(o *op) ([][]uint64, counts, error) {
	stage, inner, timer := stQuery, stLSMQuery, s.queryTime
	switch o.kind {
	case opInsert, opDelete:
		stage, inner, timer = stUpdate, stLSMApply, s.updateTime
	case opFlush:
		stage, inner, timer = stFlush, stLSMFlush, s.flushTime
	}
	before := timer.Sum()
	root := s.tr.begin(stage, -1)
	trip := s.tr.begin(stRoundTrip, root)
	ids, c, err := s.dynamicSession.do(o)
	s.tr.end(trip)
	s.tr.end(root)
	if err != nil {
		return nil, counts{}, err
	}
	exec := int64(timer.Sum() - before)
	server := s.tr.reported(inner, trip, exec)
	switch o.kind {
	case opInsert, opDelete:
		rec := wal.Record{Seq: s.seq, Kind: wal.Insert, ID: o.id, Value: o.value, Payload: payloadFor(o.id)}
		if o.kind == opDelete {
			rec.Kind, rec.Payload = wal.Delete, nil
		}
		s.seq += rec.Span()
		s.done = append(s.done, tracedWrite{s.tr.op, server, rec})
	case opRead:
		// The store is idle between this client's ops, so reading its
		// epoch count here does not race with the server.
		s.sum.epochs += int64(s.ds.store.ActiveIndexes())
		s.sum.reads++
	}
	return ids, c, err
}

func (s *tracedDynamic) totals() traceTotals {
	for _, w := range s.done {
		s.tr.op = w.op
		s.tr.replica(stWALAppend, w.server, func() { s.log.Append(w.rec) })
		s.sum.walAppends++
	}
	s.done = nil
	s.sum.walBytes, _ = s.log.Size()
	return s.sum
}

func (s *tracedDynamic) close() error {
	s.log.Close()
	return s.dynamicSession.close()
}
