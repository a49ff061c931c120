package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/prf"
	"rsse/internal/sse"
)

// The query pipeline. Every query runs it: a single range is a batch of
// one. Correlated range workloads produce covers that overlap heavily,
// yet a one-range-at-a-time protocol pays full token-generation,
// transfer and search cost per range. QueryBatchInto plans all covers at
// once, derives one token per *unique* cover node, ships a single
// multi-trapdoor per round, and demultiplexes the per-token result
// groups back into every requesting range — so a node shared by k ranges
// is tokenized, transferred and searched exactly once.
//
// Leakage note: a batch reveals strictly less than the equivalent
// sequential queries. The server sees the union of the per-range token
// sets, deduplicated and permuted together, so per-range token counts
// and the number of ranges are hidden: a batch round is one search
// exchange, like a single query's. Sequential queries reveal every
// per-range token multiset separately, with timing.
//
// The cover plan lists the union sorted, not in order of first
// appearance, and the server's view has the same distribution either
// way: each round lays unique token u into slot[u] of one uniform
// permutation c.rnd.Perm(n) of the same n tokens. Sorted nodes also
// follow the node they share the longest GGM path prefix with, which
// the Constant schemes' prefix-memoized DelegateNodes walk reuses.

// searchRound runs one search round and refuses a response that is not
// one group per token, or whose items are not width bytes each: group j
// answers token j, so a response with a group missing or one too many
// is refused, not demultiplexed.
func searchRound(ctx context.Context, s Source, t *Trapdoor, width int) (*Response, error) {
	resp, err := s.SearchContext(ctx, t)
	if err != nil {
		return nil, err
	}
	if len(resp.Ends) != t.Tokens() {
		return nil, fmt.Errorf("core: response has %d groups for %d tokens", len(resp.Ends), t.Tokens())
	}
	if n := resp.Items(); n > 0 && (resp.Width != width || len(resp.Data) != n*width) {
		return nil, fmt.Errorf("core: response of %d %d-byte items in %d bytes, want %d-byte items", n, resp.Width, len(resp.Data), width)
	}
	return resp, nil
}

// BatchStats aggregates the cost and leakage accounting of one batched
// query that the per-range stats cannot express: how many tokens the
// covers demanded, how many actually crossed the wire after dedup, and
// the wall-clock split. In a batch of two or more ranges the per-range
// ResponseItems, ServerTime and OwnerTime stay zero — rounds are shared,
// so only the batch-level figures are meaningful; a batch of one credits
// them to its one range.
type BatchStats struct {
	// Ranges is the batch size. It never crosses the wire: the server
	// sees only the token union of each round.
	Ranges int
	// Rounds is the number of owner↔server exchanges (2 when any range
	// needed SRC-i round 2).
	Rounds int
	// CoverNodes sums the per-range cover sizes — the tokens a sequential
	// execution would have generated and shipped.
	CoverNodes int
	// UniqueTokens counts the tokens actually sent after deduplication.
	UniqueTokens int
	// TokenBytes is the serialized size of the deduplicated trapdoors.
	TokenBytes int
	// ResponseItems counts every item the server shipped back.
	ResponseItems int
	// FetchedTuples counts the distinct ids fetched during shared
	// false-positive filtering (each id fetched once however many ranges
	// returned it).
	FetchedTuples int
	// ServerTime and OwnerTime split the batch's wall-clock cost.
	ServerTime time.Duration
	OwnerTime  time.Duration
}

// Add folds one part's batch stats into s, as QueryStats.Add does:
// counters and times sum and Rounds is the maximum.
func (s *BatchStats) Add(t BatchStats) {
	s.Ranges += t.Ranges
	s.Rounds = max(s.Rounds, t.Rounds)
	s.CoverNodes += t.CoverNodes
	s.UniqueTokens += t.UniqueTokens
	s.TokenBytes += t.TokenBytes
	s.ResponseItems += t.ResponseItems
	s.FetchedTuples += t.FetchedTuples
	s.ServerTime += t.ServerTime
	s.OwnerTime += t.OwnerTime
}

// DedupRatio reports CoverNodes / UniqueTokens: how many times each sent
// token was reused across the batch (1 means no sharing).
func (s BatchStats) DedupRatio() float64 {
	if s.UniqueTokens == 0 {
		return 1
	}
	return float64(s.CoverNodes) / float64(s.UniqueTokens)
}

// BatchResult is the outcome of one batched query: one Result per input
// range, in input order, plus batch-level accounting.
type BatchResult struct {
	Results []*Result
	Stats   BatchStats
}

// tokenPlan is one round's planned multi-trapdoor: the deduplicated
// tokens laid into a permuted trapdoor, plus the owner-side map that
// routes each response group back to the ranges that asked for its node.
type tokenPlan struct {
	trap *Trapdoor
	// perRange[i] lists the trapdoor slots of range i's cover, in the
	// cover's own order. A plan of one range leaves it nil: the range owns
	// every slot, in trapdoor order, so the trapdoor alone describes the
	// plan and the trapdoor memo can replay it.
	perRange [][]int
	// total is the pre-dedup cover size across the batch.
	total int
}

// tokens returns the number of tokens range i's cover asked for.
func (p *tokenPlan) tokens(i int) int {
	if p.perRange == nil {
		return p.trap.Tokens()
	}
	return len(p.perRange[i])
}

// slot returns the trapdoor slot of the j-th token of range i.
func (p *tokenPlan) slot(i, j int) int {
	if p.perRange == nil {
		return j
	}
	return p.perRange[i][j]
}

// tokenBytes is the serialized size of n of the plan's tokens.
func (p *tokenPlan) tokenBytes(n int) int {
	if len(p.trap.GGM) > 0 {
		return n * dprf.TokenSize
	}
	return n * sse.StagSize
}

// demux flattens the response groups of the plan's range i into dst[i]:
// raw ids and group sizes, as windows of one id array and one group-size
// array, each capped at its length so that an append by a caller copies
// rather than overwrites the next range's. The response's items are ids
// (searchRound checked their width).
func (p *tokenPlan) demux(resp *Response, dst []*Result) {
	items := 0
	for i := range dst {
		for j := range p.tokens(i) {
			lo, hi := resp.group(p.slot(i, j))
			items += hi - lo
		}
	}
	ids, sizes := make([]ID, 0, items), make([]int, 0, p.total)
	for i, res := range dst {
		id0, g0 := len(ids), len(sizes)
		for j := range p.tokens(i) {
			lo, hi := resp.group(p.slot(i, j))
			sizes = append(sizes, hi-lo)
			for g := resp.Data[lo*IDSize : hi*IDSize]; len(g) > 0; g = g[IDSize:] {
				ids = append(ids, binary.BigEndian.Uint64(g))
			}
		}
		res.Raw = ids[id0:len(ids):len(ids)]
		res.Stats.Groups = sizes[g0:len(sizes):len(sizes)]
		res.Stats.Raw = len(res.Raw)
	}
}

// oneSlot is the order of a lone token: slot 0, read-only.
var oneSlot = []int{0}

// permutation draws the trapdoor order of n unique tokens from c.rnd —
// slot[u] is unique token u's trapdoor position; the permutation hides
// per-range structure from the server while the owner keeps the map — and
// rewrites perRange from unique-token indices to slots, in place. A lone
// token has one order, so it draws nothing: a single-token trapdoor (an
// SRC window, a Quadratic keyword) leaves c.rnd untouched.
func (c *Client) permutation(n int, perRange [][]int) []int {
	if n <= 1 {
		return oneSlot[:n]
	}
	c.mu.Lock()
	slot := c.rnd.Perm(n)
	c.mu.Unlock()
	for _, idxs := range perRange {
		for j, u := range idxs {
			idxs[j] = slot[u]
		}
	}
	return slot
}

// planRound1 plans the first-round multi-trapdoor of ranges for an index
// of the given suite. A one-range plan replays the trapdoor memo's entry
// for its range when there is one and fills it when there is not;
// larger batches always derive fresh (see tdmemo.go).
func (c *Client) planRound1(ranges []Range, suite prf.Suite) (tokenPlan, error) {
	if len(ranges) == 1 {
		if t, ok := c.tdMemo.get(ranges[0], suite); ok {
			return tokenPlan{trap: t, total: t.Tokens()}, nil
		}
	}
	p, err := c.freshRound1(ranges, suite)
	if err == nil && len(ranges) == 1 {
		c.tdMemo.put(ranges[0], suite, p.trap)
	}
	return p, err
}

// freshRound1 derives the first-round multi-trapdoor of ranges from
// scratch, for an index of the given suite. The Constant schemes' GGM
// tokens are evaluated on that suite's tree, which the server expands;
// the Logarithmic kinds' tokens are keyword stags from the stagger of
// that suite, and Quadratic's stags are the same under every suite (see
// stag.go).
func (c *Client) freshRound1(ranges []Range, suite prf.Suite) (tokenPlan, error) {
	var ivsBuf [1]cover.Interval // a one-range plan keeps its interval on the stack
	ivs := ivsBuf[:0]
	if len(ranges) > 1 {
		ivs = make([]cover.Interval, 0, len(ranges))
	}
	for _, q := range ranges {
		ivs = append(ivs, cover.Interval{Lo: q.Lo, Hi: q.Hi})
	}
	switch c.kind {
	case Quadratic:
		// Each range is one keyword; only identical ranges dedupe.
		var uniq []Range
		var perRange [][]int // nil for one range, as cover plans leave it
		if len(ranges) > 1 {
			perRange = make([][]int, len(ranges))
		}
		for i, q := range ranges {
			u := slices.Index(uniq, q)
			if u < 0 {
				u = len(uniq)
				uniq = append(uniq, q)
			}
			if perRange != nil {
				perRange[i] = []int{u}
			}
		}
		slot := c.permutation(len(uniq), perRange)
		out := make([]sse.Stag, len(uniq))
		h := prf.GetHasher(c.kSSE)
		for u, q := range uniq {
			out[slot[u]] = rangeStag(h, q)
		}
		prf.PutHasher(h)
		return tokenPlan{trap: &Trapdoor{round: 1, Stags: out}, perRange: perRange, total: len(ranges)}, nil
	case ConstantBRC, ConstantURC:
		p, err := cover.PlanBatch(c.dom, ivs, c.technique())
		if err != nil {
			return tokenPlan{}, err
		}
		// One prefix-memoized expander walk over the whole deduplicated
		// node set: consecutive plan nodes share tree prefixes, so this
		// is far cheaper than one root walk per node (and byte-identical
		// to it).
		e := dprf.GetExpanderSuite(suite)
		tokens, err := e.DelegateNodes(make([]dprf.Token, 0, len(p.Nodes)), c.kDPRF.WithSuite(suite), p.Nodes)
		dprf.PutExpander(e)
		if err != nil {
			return tokenPlan{}, err
		}
		slot := c.permutation(len(tokens), p.PerRange)
		out := make([]dprf.Token, len(tokens))
		for u, s := range slot {
			out[s] = tokens[u]
		}
		return tokenPlan{trap: &Trapdoor{round: 1, GGM: out}, perRange: p.PerRange, total: p.Total}, nil
	case LogarithmicBRC, LogarithmicURC:
		p, err := cover.PlanBatch(c.dom, ivs, c.technique())
		if err != nil {
			return tokenPlan{}, err
		}
		return c.stagPlanFromNodes(p, suite, c.kSSE, 1), nil
	case LogarithmicSRC, LogarithmicSRCi:
		p, err := cover.PlanBatchSRC(cover.NewTDAG(c.dom), ivs)
		if err != nil {
			return tokenPlan{}, err
		}
		return c.stagPlanFromNodes(p, suite, c.kSSE, 1), nil
	default:
		return tokenPlan{}, fmt.Errorf("core: unknown scheme kind %d", int(c.kind))
	}
}

// stagPlanFromNodes derives one stag per unique cover node under key,
// for an index of the given suite, and wraps the plan into a permuted
// trapdoor.
func (c *Client) stagPlanFromNodes(p cover.BatchPlan, suite prf.Suite, key prf.Key, round int) tokenPlan {
	// Derive each stag straight into its permuted trapdoor slot: the
	// permutation depends only on the node count, so drawing it first
	// skips an intermediate unique-stag slice.
	slot := c.permutation(len(p.Nodes), p.PerRange)
	out := make([]sse.Stag, len(p.Nodes))
	s := newStagger(suite, key)
	for u, n := range p.Nodes {
		out[slot[u]] = s.node(n)
	}
	s.release()
	return tokenPlan{trap: &Trapdoor{round: round, Stags: out}, perRange: p.PerRange, total: p.Total}
}

// QueryBatchContext answers several ranges in one batched protocol run
// against any Source: cover nodes shared across the ranges are
// deduplicated into one multi-trapdoor per round, and the response is
// demultiplexed into one Result per range, in input order, each as a
// sequential QueryContext loop would answer it. Against a remote source
// each round is one search frame, and the filter's fetches one chunked
// fetch round. ctx aborts the batch between and during steps. For the
// Constant schemes every range must be non-intersecting — with the
// others and with history — and the batch stays in history only if it
// succeeds.
func (c *Client) QueryBatchContext(ctx context.Context, s Source, ranges []Range) (*BatchResult, error) {
	br := &BatchResult{}
	if err := c.QueryBatchInto(ctx, s, ranges, br); err != nil {
		return nil, err
	}
	return br, nil
}

// QueryBatchInto is QueryBatchContext writing into br, whose Results
// backing array it reuses: a caller that runs one batch against many
// indexes (the LSM's epochs) allocates the slice once.
//
// It is the query protocol — Trpdr over the covers, Search, SRC-i's
// second round, the false-positive filter — and every query runs it: a
// single query is a batch of one. A batch of one credits its one result
// with the whole exchange: its response items and its server and owner
// time, which a larger batch can only report for the batch as a whole.
func (c *Client) QueryBatchInto(ctx context.Context, s Source, ranges []Range, br *BatchResult) (err error) {
	results := slices.Grow(br.Results[:0], len(ranges))[:len(ranges)]
	br.Results = results
	st := &br.Stats
	*st = BatchStats{Ranges: len(ranges)}
	if len(ranges) == 0 {
		return nil
	}
	meta, err := s.MetaContext(ctx)
	if err != nil {
		return err
	}
	if meta.Kind != c.kind {
		return fmt.Errorf("%w: client %v, index %v", ErrKindMismatch, c.kind, meta.Kind)
	}
	if meta.DomainBits != c.dom.Bits {
		return fmt.Errorf("%w: client domain 2^%d, index domain 2^%d",
			ErrKindMismatch, c.dom.Bits, meta.DomainBits)
	}
	for _, q := range ranges {
		if err := c.dom.CheckRange(q.Lo, q.Hi); err != nil {
			return err
		}
	}
	if (c.kind == ConstantBRC || c.kind == ConstantURC) && !c.allowIntersect {
		if err := c.reserve(ranges); err != nil {
			return err
		}
		defer func() {
			if err != nil {
				c.release(ranges)
			}
		}()
	}

	ownerStart := time.Now()
	plan1, err := c.planRound1(ranges, meta.Suite)
	if err != nil {
		return err
	}
	st.OwnerTime += time.Since(ownerStart)
	st.Rounds = 1
	st.CoverNodes = plan1.total
	st.UniqueTokens = plan1.trap.Tokens()
	st.TokenBytes = plan1.trap.Bytes()

	width := IDSize // of round 1's items: ids, or SRC-i's pairs
	if c.kind == LogarithmicSRCi {
		width = pairWidth
	}
	serverStart := time.Now()
	resp1, err := searchRound(ctx, s, plan1.trap, width)
	if err != nil {
		return err
	}
	st.ServerTime += time.Since(serverStart)
	st.ResponseItems += resp1.Items()

	rs := make([]Result, len(ranges))
	for i := range rs {
		res := &rs[i]
		n := plan1.tokens(i)
		res.Stats.Rounds = 1
		res.Stats.Tokens = n
		res.Stats.TokenBytes = plan1.tokenBytes(n)
		if len(plan1.trap.GGM) > 0 {
			res.Stats.TokenLevels = make([]uint8, n)
			for j := range res.Stats.TokenLevels {
				res.Stats.TokenLevels[j] = plan1.trap.GGM[plan1.slot(i, j)].Level
			}
		}
		results[i] = res
	}

	ownerStart = time.Now()
	if c.kind == LogarithmicSRCi {
		if err := c.srciRound2(ctx, s, meta, ranges, &plan1, resp1, results, st); err != nil {
			return err
		}
	} else {
		plan1.demux(resp1, results)
		st.OwnerTime += time.Since(ownerStart)
	}

	ownerStart = time.Now()
	if c.kind.HasFalsePositives() {
		if err := c.filter(ctx, s, ranges, results, st); err != nil {
			return err
		}
	}
	for _, res := range results {
		if !c.kind.HasFalsePositives() {
			res.Matches = res.Raw
		}
		res.Stats.Matches = len(res.Matches)
		res.Stats.FalsePositives = res.Stats.Raw - res.Stats.Matches
	}
	st.OwnerTime += time.Since(ownerStart)

	if len(results) == 1 {
		one := &results[0].Stats
		one.ResponseItems, one.ServerTime, one.OwnerTime = st.ResponseItems, st.ServerTime, st.OwnerTime
	}
	return nil
}

// reserve is the Constant schemes' guard (Section 5): it checks ranges
// against the history and against each other and records them, as one
// step under c.mu, so that of two concurrent intersecting queries
// exactly one proceeds. A query that then fails releases its ranges.
//
// Guarded ranges are disjoint, so the history is kept sorted by Lo and
// only the two neighbours of a range's slot can intersect it: each check
// is a binary search, O(log h) for a history of h ranges.
func (c *Client) reserve(ranges []Range) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, q := range ranges {
		j, _ := slices.BinarySearchFunc(c.history, q.Lo, rangeByLo)
		for _, k := range [2]int{j - 1, j} {
			if k >= 0 && k < len(c.history) && q.Intersects(c.history[k]) {
				return fmt.Errorf("%w: %v intersects earlier %v", ErrIntersectingQuery, q, c.history[k])
			}
		}
		for j := 0; j < i; j++ {
			if q.Intersects(ranges[j]) {
				return fmt.Errorf("%w: %v intersects %v in the same batch", ErrIntersectingQuery, q, ranges[j])
			}
		}
	}
	for _, q := range ranges {
		j, _ := slices.BinarySearchFunc(c.history, q.Lo, rangeByLo)
		c.history = slices.Insert(c.history, j, q)
	}
	return nil
}

// release takes back the ranges of a failed query, so that a retry of
// the same range is not refused. Reserved ranges never intersect, so
// each occurs in the history once, at the slot its Lo finds.
func (c *Client) release(ranges []Range) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, q := range ranges {
		if j, ok := slices.BinarySearchFunc(c.history, q.Lo, rangeByLo); ok && c.history[j] == q {
			c.history = slices.Delete(c.history, j, j+1)
		}
	}
}

// rangeByLo orders the guard's history by its ranges' lower bounds.
func rangeByLo(r Range, lo uint64) int { return cmp.Compare(r.Lo, lo) }

// srciRound2 runs the interactive second round of a Logarithmic-SRC-i
// query: per-range pair merges from the shared round-1 response, then one
// deduplicated round-2 multi-trapdoor over TDAG2. Like round 1's, the
// round-2 trapdoor is derived under the suite the index's Meta reported.
func (c *Client) srciRound2(ctx context.Context, s Source, meta IndexMeta, ranges []Range, plan1 *tokenPlan, resp1 *Response, results []*Result, st *BatchStats) error {
	ownerStart := time.Now()
	// live[k] is the result of the input range whose merged positions
	// are ivs[k]; a one-range query keeps both on the stack.
	var (
		liveBuf [1]*Result
		ivsBuf  [1]cover.Interval
	)
	live, ivs := liveBuf[:0], ivsBuf[:0]
	for i, q := range ranges {
		// Round-1 pair groups feed the owner-side merge only: Stats.Groups
		// records round-2 groups alone.
		posRange, any, err := c.mergePairs(plan1, resp1, i, q)
		if err != nil {
			return err
		}
		if !any {
			continue // no distinct value in range: done after round 1
		}
		live = append(live, results[i])
		ivs = append(ivs, cover.Interval{Lo: posRange.Lo, Hi: posRange.Hi})
	}
	st.OwnerTime += time.Since(ownerStart)
	if len(live) == 0 {
		return nil
	}

	ownerStart = time.Now()
	p2, err := cover.PlanBatchSRC(cover.NewTDAG(cover.Domain{Bits: meta.PosBits}), ivs)
	if err != nil {
		return err
	}
	plan2 := c.stagPlanFromNodes(p2, meta.Suite, c.kSSE2, 2)
	st.OwnerTime += time.Since(ownerStart)
	st.Rounds = 2
	st.CoverNodes += plan2.total
	st.UniqueTokens += plan2.trap.Tokens()
	st.TokenBytes += plan2.trap.Bytes()

	serverStart := time.Now()
	resp2, err := searchRound(ctx, s, plan2.trap, IDSize)
	if err != nil {
		return err
	}
	st.ServerTime += time.Since(serverStart)
	st.ResponseItems += resp2.Items()

	ownerStart = time.Now()
	for k, res := range live {
		n := plan2.tokens(k)
		res.Stats.Rounds = 2
		res.Stats.Tokens += n
		res.Stats.TokenBytes += plan2.tokenBytes(n)
	}
	plan2.demux(resp2, live)
	st.OwnerTime += time.Since(ownerStart)
	return nil
}

// filter removes the SRC schemes' false positives from every range, in
// one chunked fetch round. A range's own raw ids are distinct — its
// cover's windows are disjoint — so ids repeat only across the ranges of
// a batch, which fetches each distinct id once, in ascending id order; a
// single range fetches its raw ids as the server returned them.
func (c *Client) filter(ctx context.Context, s Source, ranges []Range, results []*Result, st *BatchStats) error {
	ids := results[0].Raw
	if len(results) > 1 {
		n := 0
		for _, res := range results {
			n += len(res.Raw)
		}
		ids = make([]ID, 0, n)
		for _, res := range results {
			ids = append(ids, res.Raw...)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	values, err := c.fetchValues(ctx, s, ids)
	if err != nil {
		return err
	}
	st.FetchedTuples = len(ids)
	for i, res := range results {
		res.Matches = make([]ID, 0, len(res.Raw))
		for j, id := range res.Raw {
			k := j // id's position in ids
			if len(results) > 1 {
				k, _ = slices.BinarySearch(ids, id)
			}
			if ranges[i].Contains(values[k]) {
				res.Matches = append(res.Matches, id)
			}
		}
	}
	return nil
}
