package rsse

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rsse/internal/core"
	"rsse/internal/prf"
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
	// Stats aggregates the cost over all attributes.
	Stats QueryStats
}

// MultiClient owns one scheme instance per attribute. Like Client, it is
// safe for concurrent use.
type MultiClient struct {
	clients []*Client
}

// MultiIndex is the server-side state: one index per attribute. Attribute
// 0's tuple store carries the payloads; the others store only their
// attribute values.
type MultiIndex struct {
	indexes []*Index
}

// ErrDimensionMismatch is returned when tuple values or query ranges do
// not match the number of attributes.
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
		inner, err := core.NewClient(kind, dom, dimOpts)
		if err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
		mc.clients[d] = &Client{inner: inner}
	}
	return mc, nil
}

// Attributes returns the number of attributes.
func (mc *MultiClient) Attributes() int { return len(mc.clients) }

// Kind returns the scheme used by every attribute instance.
func (mc *MultiClient) Kind() Kind { return mc.clients[0].Kind() }

// BuildIndex encrypts the tuples into one index per attribute.
func (mc *MultiClient) BuildIndex(tuples []MultiTuple) (*MultiIndex, error) {
	dims := len(mc.clients)
	for _, t := range tuples {
		if len(t.Values) != dims {
			return nil, fmt.Errorf("%w: tuple %d has %d values, want %d",
				ErrDimensionMismatch, t.ID, len(t.Values), dims)
		}
	}
	mi := &MultiIndex{indexes: make([]*Index, dims)}
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
		mi.indexes[d] = idx
	}
	return mi, nil
}

// Size sums the per-attribute index sizes.
func (mi *MultiIndex) Size() int {
	n := 0
	for _, idx := range mi.indexes {
		n += idx.Size()
	}
	return n
}

// Attribute exposes one attribute's index (e.g. to serve it separately).
func (mi *MultiIndex) Attribute(d int) *Index { return mi.indexes[d] }

// QueryContext runs one single-attribute query per attribute and
// intersects the matches at the owner; cancelling ctx aborts the
// attribute in flight.
func (mc *MultiClient) QueryContext(ctx context.Context, mi *MultiIndex, q MultiRange) (*MultiResult, error) {
	dims := len(mc.clients)
	if len(q) != dims {
		return nil, fmt.Errorf("%w: query has %d ranges, want %d", ErrDimensionMismatch, len(q), dims)
	}
	if len(mi.indexes) != dims {
		return nil, fmt.Errorf("%w: index has %d attributes, want %d", ErrDimensionMismatch, len(mi.indexes), dims)
	}
	out := &MultiResult{PerAttribute: make([]int, dims)}
	var inter map[ID]int
	for d := 0; d < dims; d++ {
		res, err := mc.clients[d].QueryContext(ctx, mi.indexes[d], q[d])
		if err != nil {
			return nil, fmt.Errorf("attribute %d: %w", d, err)
		}
		out.PerAttribute[d] = len(res.Matches)
		out.Stats.Rounds += res.Stats.Rounds
		out.Stats.Tokens += res.Stats.Tokens
		out.Stats.TokenBytes += res.Stats.TokenBytes
		out.Stats.ResponseItems += res.Stats.ResponseItems
		out.Stats.Raw += res.Stats.Raw
		out.Stats.FalsePositives += res.Stats.FalsePositives
		if d == 0 {
			inter = make(map[ID]int, len(res.Matches))
			for _, id := range res.Matches {
				inter[id] = 1
			}
			continue
		}
		for _, id := range res.Matches {
			if inter[id] == d {
				inter[id] = d + 1
			}
		}
	}
	for id, seen := range inter {
		if seen == dims {
			out.Matches = append(out.Matches, id)
		}
	}
	sort.Slice(out.Matches, func(i, j int) bool { return out.Matches[i] < out.Matches[j] })
	out.Stats.Matches = len(out.Matches)
	return out, nil
}

// FetchTuple reassembles a full multi-attribute tuple: the payload from
// attribute 0's store and each attribute's value from its own store.
func (mc *MultiClient) FetchTuple(mi *MultiIndex, id ID) (MultiTuple, error) {
	out := MultiTuple{ID: id, Values: make([]Value, len(mc.clients))}
	for d, c := range mc.clients {
		tuples, err := c.FetchTuples(context.Background(), mi.indexes[d], []ID{id})
		if err != nil {
			return MultiTuple{}, fmt.Errorf("attribute %d: %w", d, err)
		}
		out.Values[d] = tuples[0].Value
		if d == 0 {
			out.Payload = tuples[0].Payload
		}
	}
	return out, nil
}
