package core

import (
	"context"
	"fmt"
	"time"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/prf"
	"rsse/internal/sse"
)

// Batched query pipeline. Correlated range workloads produce covers that
// overlap heavily, yet the one-range-at-a-time protocol pays full
// token-generation, transfer and search cost per range. QueryBatch plans
// all covers at once, derives one token per *unique* cover node, ships a
// single multi-trapdoor per round, and demultiplexes the per-token result
// groups back into every requesting range — so a node shared by k ranges
// is tokenized, transferred and searched exactly once.
//
// Leakage note: a batch reveals strictly less than the equivalent
// sequential queries. The server sees the union of the per-range token
// sets, deduplicated and permuted together, so per-range token counts
// and the number of ranges are hidden: a batch round is one search
// exchange, like a single query's. Sequential queries reveal every
// per-range token multiset separately, with timing.

// ContextSearcher is the optional context-aware form of Server.Search.
type ContextSearcher interface {
	SearchContext(ctx context.Context, t *Trapdoor) (*Response, error)
}

// ContextFetcher is the optional context-aware form of Server.Fetch.
type ContextFetcher interface {
	FetchContext(ctx context.Context, id ID) ([]byte, bool, error)
}

// metaCtx reads the index metadata, honouring ctx where the server
// offers a context-aware form (transport handles do) and checking it
// before the call otherwise.
func metaCtx(ctx context.Context, s Server) (IndexMeta, error) {
	if cm, ok := s.(interface {
		MetaContext(context.Context) (IndexMeta, error)
	}); ok {
		return cm.MetaContext(ctx)
	}
	if err := ctx.Err(); err != nil {
		return IndexMeta{}, err
	}
	return s.Meta()
}

// searchCtx runs one search round, honouring ctx as far as the server
// implementation allows (a plain Server is checked before the call), and
// refuses a response that is not one group per token.
func searchCtx(ctx context.Context, s Server, t *Trapdoor) (*Response, error) {
	var resp *Response
	var err error
	if cs, ok := s.(ContextSearcher); ok {
		resp, err = cs.SearchContext(ctx, t)
	} else if err = ctx.Err(); err == nil {
		resp, err = s.Search(t)
	}
	if err != nil {
		return nil, err
	}
	return oneGroupPerToken(t, resp)
}

// oneGroupPerToken is the shape check every search round applies before
// the owner reads a response: group j answers token j, so a response
// with a group missing or one too many is refused, not demultiplexed.
func oneGroupPerToken(t *Trapdoor, resp *Response) (*Response, error) {
	if len(resp.Groups) != t.Tokens() {
		return nil, fmt.Errorf("core: response has %d groups for %d tokens", len(resp.Groups), t.Tokens())
	}
	return resp, nil
}

// fetchCtx fetches one ciphertext, honouring ctx where possible.
func fetchCtx(ctx context.Context, s Server, id ID) ([]byte, bool, error) {
	if cf, ok := s.(ContextFetcher); ok {
		return cf.FetchContext(ctx, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return s.Fetch(id)
}

// BatchStats aggregates the cost and leakage accounting of one batched
// query that the per-range stats cannot express: how many tokens the
// covers demanded, how many actually crossed the wire after dedup, and
// the wall-clock split (per-range ServerTime/OwnerTime stay zero in a
// batch — rounds are shared, so only the batch-level split is
// meaningful).
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
// tokens laid into a permuted trapdoor, plus the owner-side maps that
// route each response group back to the ranges that asked for its node.
type tokenPlan struct {
	trap *Trapdoor
	// slot[u] is the trapdoor position of unique token u; the permutation
	// hides per-range structure from the server while the owner keeps the
	// inverse.
	slot []int
	// perRange[i] lists the unique-token indices of range i's cover, in
	// the cover's own order.
	perRange [][]int
	// levels[u] is unique GGM token u's disclosed level (Constant only).
	levels []uint8
	// total is the pre-dedup cover size across the batch.
	total int
	// perTokenBytes is the serialized size of one token of this plan.
	perTokenBytes int
}

// permutedStags lays unique stags into a trapdoor in c.rnd order,
// returning the slot map.
func (c *Client) permutedStags(round int, stags []sse.Stag) (*Trapdoor, []int) {
	slot := c.rnd.Perm(len(stags))
	out := make([]sse.Stag, len(stags))
	for u, s := range slot {
		out[s] = stags[u]
	}
	return &Trapdoor{round: round, Stags: out}, slot
}

// planBatchRound1 builds the first-round multi-trapdoor for the batch,
// for an index of the given suite (see deriveRound1).
func (c *Client) planBatchRound1(ranges []Range, suite prf.Suite) (*tokenPlan, error) {
	ivs := make([]cover.Interval, len(ranges))
	for i, q := range ranges {
		ivs[i] = cover.Interval{Lo: q.Lo, Hi: q.Hi}
	}
	switch c.kind {
	case Quadratic:
		// Each range is one keyword; only identical ranges dedupe.
		seen := make(map[Range]int)
		var stags []sse.Stag
		perRange := make([][]int, len(ranges))
		h := prf.GetHasher(c.kSSE)
		for i, q := range ranges {
			u, ok := seen[q]
			if !ok {
				u = len(stags)
				seen[q] = u
				stags = append(stags, rangeStag(h, q))
			}
			perRange[i] = []int{u}
		}
		prf.PutHasher(h)
		trap, slot := c.permutedStags(1, stags)
		return &tokenPlan{trap: trap, slot: slot, perRange: perRange,
			total: len(ranges), perTokenBytes: sse.StagSize}, nil
	case ConstantBRC, ConstantURC:
		p, err := cover.PlanBatch(c.dom, ivs, c.technique())
		if err != nil {
			return nil, err
		}
		// One prefix-memoized expander walk over the whole deduplicated
		// node set: consecutive plan nodes share tree prefixes, so this
		// is far cheaper than one root walk per node (and byte-identical
		// to it).
		e := dprf.GetExpanderSuite(suite)
		tokens, err := e.DelegateNodes(make([]dprf.Token, 0, len(p.Nodes)), c.kDPRF.WithSuite(suite), p.Nodes)
		dprf.PutExpander(e)
		if err != nil {
			return nil, err
		}
		levels := make([]uint8, len(p.Nodes))
		slot := c.rnd.Perm(len(tokens))
		out := make([]dprf.Token, len(tokens))
		for u, s := range slot {
			out[s] = tokens[u]
			levels[u] = p.Nodes[u].Level
		}
		return &tokenPlan{trap: &Trapdoor{round: 1, GGM: out}, slot: slot,
			perRange: p.PerRange, levels: levels, total: p.Total,
			perTokenBytes: dprf.TokenSize}, nil
	case LogarithmicBRC, LogarithmicURC:
		p, err := cover.PlanBatch(c.dom, ivs, c.technique())
		if err != nil {
			return nil, err
		}
		return c.stagPlanFromNodes(p, suite, c.kSSE, 1), nil
	case LogarithmicSRC, LogarithmicSRCi:
		p, err := cover.PlanBatchSRC(cover.NewTDAG(c.dom), ivs)
		if err != nil {
			return nil, err
		}
		return c.stagPlanFromNodes(p, suite, c.kSSE, 1), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme kind %d", int(c.kind))
	}
}

// stagPlanFromNodes derives one stag per unique cover node under key,
// for an index of the given suite, and wraps the plan into a permuted
// trapdoor.
func (c *Client) stagPlanFromNodes(p *cover.BatchPlan, suite prf.Suite, key prf.Key, round int) *tokenPlan {
	// Derive each stag straight into its permuted trapdoor slot: the
	// permutation depends only on the node count, so drawing it first
	// skips the intermediate unique-stag slice entirely (and consumes
	// c.rnd exactly as permutedStags would).
	slot := c.rnd.Perm(len(p.Nodes))
	out := make([]sse.Stag, len(p.Nodes))
	s := newStagger(suite, key)
	for u, n := range p.Nodes {
		out[slot[u]] = s.node(n)
	}
	s.release()
	return &tokenPlan{trap: &Trapdoor{round: round, Stags: out}, slot: slot,
		perRange: p.PerRange, total: p.Total, perTokenBytes: sse.StagSize}
}

// groupFor returns the response group of unique token u.
func (p *tokenPlan) groupFor(resp *Response, u int) [][]byte {
	return resp.Groups[p.slot[u]]
}

// demuxRange flattens range i's groups (in cover order) into raw ids,
// recording group sizes into stats.
func (p *tokenPlan) demuxRange(resp *Response, i int, stats *QueryStats) []ID {
	var out []ID
	for _, u := range p.perRange[i] {
		g := p.groupFor(resp, u)
		stats.Groups = append(stats.Groups, len(g))
		for _, item := range g {
			out = append(out, sse.PayloadU64(item))
		}
	}
	return out
}

// QueryBatch runs the batched query protocol for several ranges against
// any Server, deduplicating cover nodes shared across the ranges. See
// QueryBatchContext.
func (c *Client) QueryBatch(s Server, ranges []Range) (*BatchResult, error) {
	return c.QueryBatchContext(context.Background(), s, ranges)
}

// QueryBatchContext is QueryBatch with cancellation: the batch aborts
// between (and, against context-aware servers, during) protocol steps
// when ctx is done. Results are per input range, in input order, and
// identical to what a sequential Query loop would return. For the
// Constant schemes every range in the batch must be non-intersecting —
// with the other batch ranges and with history — and the batch is
// recorded in history only if it succeeds.
func (c *Client) QueryBatchContext(ctx context.Context, s Server, ranges []Range) (*BatchResult, error) {
	br := &BatchResult{Results: make([]*Result, len(ranges))}
	br.Stats.Ranges = len(ranges)
	if len(ranges) == 0 {
		return br, nil
	}
	meta, err := metaCtx(ctx, s)
	if err != nil {
		return nil, err
	}
	if meta.Kind != c.kind {
		return nil, fmt.Errorf("%w: client %v, index %v", ErrKindMismatch, c.kind, meta.Kind)
	}
	if meta.DomainBits != c.dom.Bits {
		return nil, fmt.Errorf("%w: client domain 2^%d, index domain 2^%d",
			ErrKindMismatch, c.dom.Bits, meta.DomainBits)
	}
	for _, q := range ranges {
		if err := c.dom.CheckRange(q.Lo, q.Hi); err != nil {
			return nil, err
		}
	}
	constant := c.kind == ConstantBRC || c.kind == ConstantURC
	if constant && !c.allowIntersect {
		for i, q := range ranges {
			for _, prev := range c.history {
				if q.Intersects(prev) {
					return nil, fmt.Errorf("%w: %v intersects earlier %v", ErrIntersectingQuery, q, prev)
				}
			}
			for j := 0; j < i; j++ {
				if q.Intersects(ranges[j]) {
					return nil, fmt.Errorf("%w: %v intersects %v in the same batch", ErrIntersectingQuery, q, ranges[j])
				}
			}
		}
	}

	ownerStart := time.Now()
	plan1, err := c.planBatchRound1(ranges, meta.Suite)
	if err != nil {
		return nil, err
	}
	br.Stats.OwnerTime += time.Since(ownerStart)
	br.Stats.Rounds = 1
	br.Stats.CoverNodes = plan1.total
	br.Stats.UniqueTokens = plan1.trap.Tokens()
	br.Stats.TokenBytes = plan1.trap.Bytes()

	serverStart := time.Now()
	resp1, err := searchCtx(ctx, s, plan1.trap)
	if err != nil {
		return nil, err
	}
	br.Stats.ServerTime += time.Since(serverStart)
	br.Stats.ResponseItems += resp1.Items()

	for i := range ranges {
		res := &Result{}
		res.Stats.Rounds = 1
		res.Stats.Tokens = len(plan1.perRange[i])
		res.Stats.TokenBytes = len(plan1.perRange[i]) * plan1.perTokenBytes
		if plan1.levels != nil {
			for _, u := range plan1.perRange[i] {
				res.Stats.TokenLevels = append(res.Stats.TokenLevels, plan1.levels[u])
			}
		}
		br.Results[i] = res
	}

	ownerStart = time.Now()
	if c.kind == LogarithmicSRCi {
		if err := c.batchSRCiRound2(ctx, s, meta, ranges, plan1, resp1, br); err != nil {
			return nil, err
		}
	} else {
		for i := range ranges {
			res := br.Results[i]
			res.Raw = plan1.demuxRange(resp1, i, &res.Stats)
			res.Stats.Raw = len(res.Raw)
		}
		br.Stats.OwnerTime += time.Since(ownerStart)
	}

	ownerStart = time.Now()
	if c.kind.HasFalsePositives() {
		if err := c.batchFilter(ctx, s, ranges, br); err != nil {
			return nil, err
		}
	}
	for _, res := range br.Results {
		if !c.kind.HasFalsePositives() {
			res.Matches = res.Raw
		}
		res.Stats.Matches = len(res.Matches)
		res.Stats.FalsePositives = res.Stats.Raw - res.Stats.Matches
	}
	br.Stats.OwnerTime += time.Since(ownerStart)

	if constant {
		c.history = append(c.history, ranges...)
	}
	return br, nil
}

// batchSRCiRound2 runs the interactive second round of a batched SRC-i
// query: per-range pair merges from the shared round-1 response, then one
// deduplicated round-2 multi-trapdoor over TDAG2.
func (c *Client) batchSRCiRound2(ctx context.Context, s Server, meta IndexMeta, ranges []Range, plan1 *tokenPlan, resp1 *Response, br *BatchResult) error {
	ownerStart := time.Now()
	var (
		live []int // indices of ranges with a non-empty round 2
		ivs  []cover.Interval
	)
	for i := range ranges {
		// Round-1 pair groups feed the owner-side merge only; like the
		// sequential path, Stats.Groups records round-2 groups alone.
		sub := &Response{Groups: make([][][]byte, 0, len(plan1.perRange[i]))}
		for _, u := range plan1.perRange[i] {
			sub.Groups = append(sub.Groups, plan1.groupFor(resp1, u))
		}
		posRange, any, err := c.mergePairs(sub, ranges[i])
		if err != nil {
			return err
		}
		if !any {
			continue // no distinct value in range: done after round 1
		}
		live = append(live, i)
		ivs = append(ivs, cover.Interval{Lo: posRange.Lo, Hi: posRange.Hi})
	}
	br.Stats.OwnerTime += time.Since(ownerStart)
	if len(live) == 0 {
		return nil
	}

	ownerStart = time.Now()
	p2, err := cover.PlanBatchSRC(cover.NewTDAG(cover.Domain{Bits: meta.PosBits}), ivs)
	if err != nil {
		return err
	}
	plan2 := c.stagPlanFromNodes(p2, meta.Suite, c.kSSE2, 2)
	br.Stats.OwnerTime += time.Since(ownerStart)
	br.Stats.Rounds = 2
	br.Stats.CoverNodes += plan2.total
	br.Stats.UniqueTokens += plan2.trap.Tokens()
	br.Stats.TokenBytes += plan2.trap.Bytes()

	serverStart := time.Now()
	resp2, err := searchCtx(ctx, s, plan2.trap)
	if err != nil {
		return err
	}
	br.Stats.ServerTime += time.Since(serverStart)
	br.Stats.ResponseItems += resp2.Items()

	ownerStart = time.Now()
	for j, i := range live {
		res := br.Results[i]
		res.Stats.Rounds = 2
		res.Stats.Tokens += len(plan2.perRange[j])
		res.Stats.TokenBytes += len(plan2.perRange[j]) * plan2.perTokenBytes
		res.Raw = plan2.demuxRange(resp2, j, &res.Stats)
		res.Stats.Raw = len(res.Raw)
	}
	br.Stats.OwnerTime += time.Since(ownerStart)
	return nil
}

// batchFilter removes the SRC schemes' false positives from every range,
// fetching each distinct raw id exactly once across the whole batch (the
// shared cover nodes mean the same ids recur in many ranges' raw sets),
// all of them in one chunked fetch round.
func (c *Client) batchFilter(ctx context.Context, s Server, ranges []Range, br *BatchResult) error {
	seen := make(map[ID]Value) // distinct raw ids, then their values
	var distinct []ID
	for _, res := range br.Results {
		for _, id := range res.Raw {
			if _, dup := seen[id]; !dup {
				seen[id] = 0
				distinct = append(distinct, id)
			}
		}
	}
	values, err := c.fetchValues(ctx, s, distinct)
	if err != nil {
		return err
	}
	br.Stats.FetchedTuples = len(distinct)
	for i, id := range distinct {
		seen[id] = values[i]
	}
	for i, res := range br.Results {
		res.Matches = make([]ID, 0, len(res.Raw))
		for _, id := range res.Raw {
			if ranges[i].Contains(seen[id]) {
				res.Matches = append(res.Matches, id)
			}
		}
	}
	return nil
}
