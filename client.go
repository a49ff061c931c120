package rsse

import (
	"context"

	"rsse/internal/core"
	"rsse/internal/cover"
)

// Client is the data owner's handle for one scheme instance: it holds the
// secret keys, builds encrypted indexes and runs query protocols. The
// zero value is not usable; construct with NewClient.
//
// A Client is safe for concurrent use: one client per key serves every
// goroutine. Its only mutable state — the randomness that permutes each
// trapdoor and, for the Constant schemes, the history of issued ranges —
// sits behind one lock. A Constant query reserves its ranges in the
// history before it runs and releases them if it fails, so of two
// concurrent intersecting queries exactly one proceeds.
type Client struct {
	inner *core.Client
}

// NewClient creates an owner for the given scheme over the domain
// {0..2^domainBits - 1}. With no options it uses the "basic" SSE
// construction and fresh random keys.
func NewClient(kind Kind, domainBits uint8, opts ...Option) (*Client, error) {
	dom, err := cover.NewDomain(domainBits)
	if err != nil {
		return nil, err
	}
	lowered, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewClient(kind, dom, lowered)
	if err != nil {
		return nil, err
	}
	return &Client{inner: inner}, nil
}

// Kind returns the scheme this client instantiates.
func (c *Client) Kind() Kind { return c.inner.Kind() }

// Domain returns the query-attribute domain.
func (c *Client) Domain() Domain { return c.inner.Domain() }

// SSEName names the underlying SSE construction ("basic", "packed",
// "tset").
func (c *Client) SSEName() string { return c.inner.SSEName() }

// BuildIndex encrypts the tuples and builds the scheme's index(es). The
// returned Index (plus its embedded encrypted tuple store) is everything
// the server needs; it contains no key material.
func (c *Client) BuildIndex(tuples []Tuple) (*Index, error) {
	return c.inner.BuildIndex(tuples)
}

// Source is what a Client queries: an index, wherever it lives — a
// local *Index or a dialed *RemoteIndex. It answers three context-first
// calls — MetaContext, SearchContext and FetchMany — and the protocol
// is the same against each.
type Source = core.Source

// QueryContext runs the scheme's full query protocol — one round, or
// two for Logarithmic-SRC-i — against the source, filters any false
// positives owner-side, and returns matches with cost/leakage
// accounting. The protocol aborts between (and inside) rounds when ctx
// is done, and against a remote source an expired ctx abandons the
// in-flight round trip at once (the server's late response is
// discarded).
func (c *Client) QueryContext(ctx context.Context, s Source, q Range) (*Result, error) {
	return c.inner.QueryContext(ctx, s, q)
}

// QueryRemoteContext is QueryContext.
//
// Deprecated: call QueryContext, which takes any Source.
func (c *Client) QueryRemoteContext(ctx context.Context, r *RemoteIndex, q Range) (*Result, error) {
	return c.QueryContext(ctx, r, q)
}

// QueryBatchContext answers several ranges in one batched protocol
// run: all covers are planned together, cover nodes shared across the
// ranges are deduplicated into a single multi-trapdoor per round, and
// the shared response is demultiplexed (and false-positive filtered,
// each id fetched once) back into one Result per range, in input order.
// Against a remote source each round is one search frame, and the
// filter's fetches one chunked fetch round. For the Constant schemes
// the batch's ranges must be mutually non-intersecting as well as
// non-intersecting with history; the batch enters the history only on
// success. Cancelling ctx aborts the batch.
func (c *Client) QueryBatchContext(ctx context.Context, s Source, ranges []Range) (*BatchResult, error) {
	return c.inner.QueryBatchContext(ctx, s, ranges)
}

// FetchTuples retrieves and decrypts the tuples stored under ids, in
// order — the final, search-orthogonal step applications use to obtain
// payloads. Against a remote source the ids travel in one chunked fetch
// round (one frame per 128 ids), not one round trip each; an id the
// source does not hold fails the call.
func (c *Client) FetchTuples(ctx context.Context, s Source, ids []ID) ([]Tuple, error) {
	return c.inner.FetchTuples(ctx, s, ids)
}

// Trapdoor produces the first-round query message without executing the
// protocol — for benchmarks and protocol inspection. It bypasses the
// Constant schemes' intersection guard; use QueryContext for real traffic.
//
// The message is for an index of the PRF suite this client builds (an
// index reports its own in IndexMeta.Suite). Against an index of another
// suite — one built by an earlier release, say — the tokens match
// nothing and the search comes back empty. QueryContext and
// QueryBatchContext read the index's suite and derive for it, so they answer from indexes of every
// suite.
func (c *Client) Trapdoor(q Range) (*Trapdoor, error) {
	return c.inner.Trapdoor(q)
}

// TrapdoorCost measures the owner-side query cost for a range — token
// count and serialized bytes — performing the real cryptographic work but
// requiring no index (the measurement behind the paper's Figure 8).
func (c *Client) TrapdoorCost(q Range) (tokens, bytes int, err error) {
	return c.inner.TrapdoorCost(q)
}

// ResetHistory clears the Constant schemes' intersecting-query guard.
func (c *Client) ResetHistory() { c.inner.ResetHistory() }

// TrapdoorMemoStats reports cumulative trapdoor-memo hits and misses;
// both stay zero unless WithTrapdoorMemo enabled the memo.
func (c *Client) TrapdoorMemoStats() (hits, misses uint64) {
	return c.inner.TrapdoorMemoStats()
}
