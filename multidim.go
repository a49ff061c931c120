package rsse

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"rsse/internal/core"
	"rsse/internal/prf"
	"rsse/internal/shard"
)

// Multi-dimensional range search — the paper's stated future work
// ("the considerably harder setting of multi-dimensional range queries",
// Section 9) — implemented here as the standard conjunction baseline:
// one independent single-attribute RSSE instance per attribute, with the
// owner intersecting the per-attribute results.
//
// Security: each attribute's index leaks exactly its single-attribute
// profile, and the server additionally observes the *per-attribute*
// access patterns of a conjunctive query (the ids matching each attribute
// range separately, before intersection). Dedicated multi-dimensional
// schemes avoid that; this baseline makes the trade-off explicit and
// measurable via MultiResult.Stats.

// MultiTuple is a tuple with one value per attribute.
type MultiTuple struct {
	ID      ID
	Values  []Value
	Payload []byte
}

// MultiRange is a conjunctive query: one closed range per attribute. Use
// the attribute's full domain to leave it unconstrained.
type MultiRange []Range

// MultiResult is the outcome of a conjunctive query.
type MultiResult struct {
	// Matches satisfies every per-attribute range.
	Matches []ID
	// PerAttribute holds each attribute's match count — what the server
	// observes before the owner intersects.
	PerAttribute []int
	// Stats folds every attribute's with QueryStats.Add: counters and
	// times sum, Rounds is the maximum (the attributes run concurrently),
	// and Groups and TokenLevels list each attribute's in turn. Matches
	// counts the intersection.
	Stats QueryStats
}

// MultiClient owns one scheme instance per attribute and queries one
// Source per attribute: a local *Index or a served one, each attribute
// wherever it lives. Like Client, it is safe for concurrent use.
type MultiClient struct {
	clients []*Client
}

// ErrDimensionMismatch is returned when tuple values, query ranges or
// sources do not match the number of attributes.
var ErrDimensionMismatch = errors.New("rsse: wrong number of attributes")

// NewMultiClient creates a conjunctive client over len(domainBits)
// attributes, each with its own domain. Options apply to every attribute
// instance; when WithMasterKey is used, per-attribute keys are derived
// from it, so a single stored secret suffices to rebuild the client.
func NewMultiClient(kind Kind, domainBits []uint8, opts ...Option) (*MultiClient, error) {
	if len(domainBits) == 0 {
		return nil, errors.New("rsse: at least one attribute required")
	}
	lowered, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	var master prf.Key
	haveMaster := lowered.MasterKey != nil
	if haveMaster {
		if master, err = prf.KeyFromBytes(lowered.MasterKey); err != nil {
			return nil, err
		}
	}
	mc := &MultiClient{clients: make([]*Client, len(domainBits))}
	for d, bits := range domainBits {
		// Lowered per attribute, so that each client draws from a shuffle
		// source of its own (see core.Options.Rand).
		dimOpts, err := applyOptions(opts)
		if err != nil {
			return nil, err
		}
		if haveMaster {
			k := prf.DeriveN(master, "attribute", uint64(d))
			dimOpts.MasterKey = k[:]
		}
		dom, err := NewDomain(bits)
		if err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
		if mc.clients[d], err = core.NewClient(kind, dom, dimOpts); err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
	}
	return mc, nil
}

// Attributes returns the number of attributes.
func (mc *MultiClient) Attributes() int { return len(mc.clients) }

// Kind returns the scheme used by every attribute instance.
func (mc *MultiClient) Kind() Kind { return mc.clients[0].Kind() }

// BuildIndex encrypts the tuples into one index per attribute, in
// attribute order. Attribute 0's tuple store carries the payloads; the
// others store only their attribute values. Serve or keep each index as
// any other: QueryContext and FetchTuples take one Source per attribute.
func (mc *MultiClient) BuildIndex(tuples []MultiTuple) ([]*Index, error) {
	dims := len(mc.clients)
	for _, t := range tuples {
		if len(t.Values) != dims {
			return nil, fmt.Errorf("%w: tuple %d has %d values, want %d",
				ErrDimensionMismatch, t.ID, len(t.Values), dims)
		}
	}
	indexes := make([]*Index, dims)
	for d := 0; d < dims; d++ {
		sub := make([]Tuple, len(tuples))
		for i, t := range tuples {
			sub[i] = Tuple{ID: t.ID, Value: t.Values[d]}
			if d == 0 {
				sub[i].Payload = t.Payload
			}
		}
		idx, err := mc.clients[d].BuildIndex(sub)
		if err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
		indexes[d] = idx
	}
	return indexes, nil
}

// checkSources refuses a source list of the wrong length.
func (mc *MultiClient) checkSources(srcs []Source) error {
	if len(srcs) != len(mc.clients) {
		return fmt.Errorf("%w: %d sources, want %d", ErrDimensionMismatch, len(srcs), len(mc.clients))
	}
	return nil
}

// QueryContext runs one single-attribute query per attribute, srcs[d]
// answering attribute d, the attributes concurrently through the same
// fan-out a cluster's shards use, and intersects the matches at the
// owner. The first attribute to fail, or a cancelled ctx, fails the
// query and aborts the attributes still in flight.
func (mc *MultiClient) QueryContext(ctx context.Context, srcs []Source, q MultiRange) (*MultiResult, error) {
	dims := len(mc.clients)
	if len(q) != dims {
		return nil, fmt.Errorf("%w: query has %d ranges, want %d", ErrDimensionMismatch, len(q), dims)
	}
	if err := mc.checkSources(srcs); err != nil {
		return nil, err
	}
	outcomes, err := shard.Run(ctx, shard.FailFast, dims, func(ctx context.Context, d int) (*Result, error) {
		res, err := mc.clients[d].QueryContext(ctx, srcs[d], q[d])
		if err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
		slices.Sort(res.Matches)
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := &MultiResult{PerAttribute: make([]int, dims)}
	for d, o := range outcomes {
		out.PerAttribute[d] = len(o.Res.Matches)
		out.Stats.Add(o.Res.Stats)
		if d == 0 {
			out.Matches = o.Res.Matches
		} else {
			out.Matches = intersect(out.Matches, o.Res.Matches)
		}
	}
	out.Stats.Matches = len(out.Matches)
	return out, nil
}

// intersect keeps the ids of the sorted list a that the sorted list b
// also holds, in place.
func intersect(a, b []ID) []ID {
	keep, j := a[:0], 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j < len(b) && b[j] == id {
			keep = append(keep, id)
		}
	}
	return keep
}

// FetchTuples reassembles full multi-attribute tuples, in order: the
// payload from attribute 0's store and each attribute's value from its
// own, each attribute's ids in one chunked fetch round, the attributes
// concurrently. An id that an attribute's source does not hold fails the
// call.
func (mc *MultiClient) FetchTuples(ctx context.Context, srcs []Source, ids []ID) ([]MultiTuple, error) {
	if err := mc.checkSources(srcs); err != nil {
		return nil, err
	}
	outcomes, err := shard.Run(ctx, shard.FailFast, len(mc.clients), func(ctx context.Context, d int) ([]Tuple, error) {
		tuples, err := mc.clients[d].FetchTuples(ctx, srcs[d], ids)
		if err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
		return tuples, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MultiTuple, len(ids))
	for i, id := range ids {
		out[i] = MultiTuple{ID: id, Values: make([]Value, len(mc.clients)), Payload: outcomes[0].Res[i].Payload}
		for d, o := range outcomes {
			out[i].Values[d] = o.Res[i].Value
		}
	}
	return out, nil
}
