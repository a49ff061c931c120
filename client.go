package rsse

import (
	"rsse/internal/core"
	"rsse/internal/cover"
)

// Client is the data owner's handle for one scheme instance: it holds
// the secret keys, builds encrypted indexes and runs the query protocol
// against any Source. Construct one with NewClient; its calls are
// listed in the package overview.
type Client = core.Client

// Source is what a Client queries: an index, wherever it lives — a
// local *Index or a dialed *RemoteIndex. It answers three context-first
// calls — MetaContext, SearchContext and FetchMany — and the protocol
// is the same against each.
type Source = core.Source

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
	return core.NewClient(kind, dom, lowered)
}
