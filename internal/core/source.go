package core

import "context"

// Source is what the query protocol runs against: an encrypted index,
// wherever it lives. It does the three things the paper's server does
// for the owner — report the index's public metadata (L1), search one
// round of tokens, and return encrypted tuples by id — and every call
// honours ctx. A local *Index is a Source, and so is every transport
// handle on a served one. Implementations must be safe for concurrent
// use.
type Source interface {
	// MetaContext describes the index (scheme, domain, size, PRF suite).
	// The client validates the scheme kind and uses PosBits for SRC-i
	// round 2.
	MetaContext(ctx context.Context) (IndexMeta, error)
	// SearchContext executes one round of server-side search.
	SearchContext(ctx context.Context, t *Trapdoor) (*Response, error)
	// FetchMany returns the encrypted tuples stored under ids, in id
	// order, with a nil entry for an id the index does not hold.
	FetchMany(ctx context.Context, ids []ID) ([][]byte, error)
}

// Server is the context-free, one-id-per-fetch server interface of
// earlier releases.
//
// Deprecated: implement Source. FromServer adapts a Server.
type Server interface {
	Meta() (IndexMeta, error)
	Search(t *Trapdoor) (*Response, error)
	// Fetch returns the encrypted tuple stored under id; ok is false if
	// the id is unknown.
	Fetch(id ID) (ct []byte, ok bool, err error)
}

// FromServer adapts a Server to a Source: each call checks ctx first,
// and FetchMany is one Fetch per id.
//
// Deprecated: implement Source.
func FromServer(s Server) Source { return legacyServer{s} }

type legacyServer struct{ s Server }

func (l legacyServer) MetaContext(ctx context.Context) (IndexMeta, error) {
	if err := ctx.Err(); err != nil {
		return IndexMeta{}, err
	}
	return l.s.Meta()
}

func (l legacyServer) SearchContext(ctx context.Context, t *Trapdoor) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.s.Search(t)
}

func (l legacyServer) FetchMany(ctx context.Context, ids []ID) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ct, ok, err := l.s.Fetch(id)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = ct
		}
	}
	return out, nil
}

// MetaContext implements Source.
func (x *Index) MetaContext(ctx context.Context) (IndexMeta, error) {
	if err := ctx.Err(); err != nil {
		return IndexMeta{}, err
	}
	return IndexMeta{Kind: x.kind, DomainBits: x.dom.Bits, PosBits: x.posBits, N: x.n, Suite: x.suite}, nil
}

// FetchMany implements Source for a local index.
func (x *Index) FetchMany(ctx context.Context, ids []ID) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]byte, len(ids))
	x.store.getMany(ids, out)
	return out, nil
}
