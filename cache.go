package rsse

import (
	"context"
	"errors"
	"sort"
	"sync"
)

// ErrNotCached is returned by a CachedClient query when an intersecting
// query cannot be assembled from cached answers.
var ErrNotCached = errors.New("rsse: intersecting query not covered by cached answers")

// CachedClient wraps a Constant-scheme client with the application-level
// strategy Section 5 of the paper suggests for the schemes' inherent
// non-intersecting-queries restriction: "the owner's program may maintain
// the history of queries and ... may try to answer the query from cached
// answers of previous queries that collectively encompass the new query
// range."
//
// A CachedClient answers for the one Source it is built over. A query
// that does not intersect history goes to the server as usual and its
// results (with their decrypted values) are cached. A query fully
// covered by the union of cached ranges is answered locally, contacting
// the server zero times. An intersecting query that is not fully covered
// fails with ErrNotCached — by design, it must never reach the server.
//
// A CachedClient is safe for concurrent use, like the Client it wraps:
// it sits in front of concurrent callers — a scatter-gather executor, a
// request fan-in — and serializes cache inspection, the wrapped client's
// query, and cache fill as one atomic step, so a caller whose range an
// in-flight query will cover waits for it and is answered from the
// cache instead of being refused as intersecting.
type CachedClient struct {
	client *Client
	src    Source

	mu       sync.Mutex
	ranges   []Range       // disjoint, sorted, answered ranges
	values   map[ID]Value  // decrypted values of cached matches
	byVal    []cachedTuple // matches sorted by value for range lookup
	unvalued []ID          // answered matches whose values are not fetched yet
}

type cachedTuple struct {
	value Value
	id    ID
}

// NewCachedClient wraps a ConstantBRC or ConstantURC client and binds
// it to s, the source every query and cache fill goes to. Other kinds
// are rejected: they have no intersection restriction to work around.
func NewCachedClient(client *Client, s Source) (*CachedClient, error) {
	if k := client.Kind(); k != ConstantBRC && k != ConstantURC {
		return nil, errors.New("rsse: CachedClient only applies to the Constant schemes")
	}
	return &CachedClient{client: client, src: s, values: make(map[ID]Value)}, nil
}

// QueryContext answers q from the bound source when permitted, or from
// the local cache when q is fully covered by earlier answers; a cache
// hit never blocks on ctx, only server-bound work does. The returned
// Result's stats have Rounds == 0 for cache hits. It is
// QueryBatchContext on one range.
func (cc *CachedClient) QueryContext(ctx context.Context, q Range) (*Result, error) {
	br, err := cc.QueryBatchContext(ctx, []Range{q})
	if err != nil {
		return nil, err
	}
	return br.Results[0], nil
}

// QueryBatchContext answers a batch of ranges, serving every range
// already covered by earlier answers from the cache and sending the
// misses to the server as one batched query (whose covers are
// deduplicated across the misses). A range that is inverted or leaves
// the domain fails the batch with the domain's error before the cache
// is read. The server-answered ranges then warm the cache, so later
// sub-ranges of any batch member are answered locally. A miss that
// intersects the cached history fails the whole batch with
// ErrNotCached; intersections *between* misses surface as the
// underlying client's ErrIntersectingQuery. Stats.Ranges is len(qs);
// the other batch counters are the server-bound misses' alone.
//
// The cache keeps a range's matched ids as soon as the server answers
// it, before their values are fetched. If that fetch fails the call
// fails, and the next call the cache covers fetches the missing values
// instead: a retry of the range, or any sub-range, searches the server
// zero times.
func (cc *CachedClient) QueryBatchContext(ctx context.Context, qs []Range) (*BatchResult, error) {
	dom := cc.client.Domain()
	for _, q := range qs {
		if err := dom.CheckRange(q.Lo, q.Hi); err != nil {
			return nil, err
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := &BatchResult{Results: make([]*Result, len(qs))}
	var hitIdx, missIdx []int
	for i, q := range qs {
		switch {
		case cc.covered(q):
			hitIdx = append(hitIdx, i)
		case cc.intersectsHistory(q):
			return nil, ErrNotCached
		default:
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		misses := make([]Range, len(missIdx))
		for j, i := range missIdx {
			misses[j] = qs[i]
		}
		br, err := cc.client.QueryBatchContext(ctx, cc.src, misses)
		if err != nil {
			return nil, err
		}
		// The wrapped client's history now holds the misses: record them
		// and their ids before anything else can fail.
		for j, i := range missIdx {
			out.Results[i] = br.Results[j]
			cc.unvalued = append(cc.unvalued, br.Results[j].Matches...)
		}
		cc.ranges = mergeRanges(append(cc.ranges, misses...))
		out.Stats = br.Stats
	}
	if err := cc.fill(ctx); err != nil {
		return nil, err
	}
	for _, i := range hitIdx {
		out.Results[i] = cc.localResult(qs[i])
	}
	out.Stats.Ranges = len(qs)
	return out, nil
}

// localResult assembles a cache-hit result (Rounds == 0).
func (cc *CachedClient) localResult(q Range) *Result {
	ids := cc.lookup(q)
	return &Result{
		Matches: ids,
		Raw:     ids,
		Stats:   QueryStats{Matches: len(ids), Raw: len(ids)},
	}
}

// fill fetches the values of the answered ids the cache does not hold
// yet from the bound source, in one chunked fetch round — the caller
// must hold cc.mu. The cache commits atomically: a fetch failure (or
// ctx expiry) leaves every id unvalued for the next call to fetch, and
// byVal sorted, which lookup's binary searches depend on.
func (cc *CachedClient) fill(ctx context.Context) error {
	if len(cc.unvalued) == 0 {
		return nil
	}
	var missing []ID
	seen := make(map[ID]struct{}, len(cc.unvalued))
	for _, id := range cc.unvalued {
		if _, ok := cc.values[id]; ok {
			continue
		}
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		missing = append(missing, id)
	}
	tuples, err := cc.client.FetchTuples(ctx, cc.src, missing)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		cc.values[t.ID] = t.Value
		cc.byVal = append(cc.byVal, cachedTuple{value: t.Value, id: t.ID})
	}
	sort.Slice(cc.byVal, func(i, j int) bool { return cc.byVal[i].value < cc.byVal[j].value })
	cc.unvalued = nil
	return nil
}

// CachedRanges returns the merged, sorted ranges answerable locally.
func (cc *CachedClient) CachedRanges() []Range {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make([]Range, len(cc.ranges))
	copy(out, cc.ranges)
	return out
}

// covered reports whether q lies inside the union of cached ranges.
func (cc *CachedClient) covered(q Range) bool {
	need := q.Lo
	for _, r := range cc.ranges {
		if r.Lo > need {
			return false // gap before the next cached range
		}
		if r.Hi >= need {
			if r.Hi >= q.Hi {
				return true
			}
			need = r.Hi + 1
		}
	}
	return false
}

func (cc *CachedClient) intersectsHistory(q Range) bool {
	for _, r := range cc.ranges {
		if q.Intersects(r) {
			return true
		}
	}
	return false
}

// lookup returns the cached ids with values inside q.
func (cc *CachedClient) lookup(q Range) []ID {
	lo := sort.Search(len(cc.byVal), func(i int) bool { return cc.byVal[i].value >= q.Lo })
	hi := sort.Search(len(cc.byVal), func(i int) bool { return cc.byVal[i].value > q.Hi })
	out := make([]ID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, cc.byVal[i].id)
	}
	return out
}

// mergeRanges merges overlapping or adjacent ranges into a minimal
// disjoint sorted set. The input is never mutated: the caller's slice
// (and backing array) are left exactly as passed — earlier versions
// sorted in place and wrote merged bounds through an aliasing output
// slice, corrupting the caller's data.
func mergeRanges(rs []Range) []Range {
	if len(rs) == 0 {
		return nil
	}
	sorted := make([]Range, len(rs))
	copy(sorted, rs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	out := make([]Range, 0, len(sorted))
	out = append(out, sorted[0])
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		// Sorted by Lo, so r.Lo >= last.Lo always holds; r either extends
		// the last merged range (overlap or adjacency) or starts a new one.
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
