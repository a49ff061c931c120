package core

import (
	"context"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	mrand "math/rand"
	"sync"
	"time"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/prf"
	"rsse/internal/secenc"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// Options configures a Client. The zero value selects the Basic SSE
// construction, a random master key and a crypto-seeded shuffle source.
type Options struct {
	// SSE is the underlying single-keyword SSE construction. The paper's
	// framework treats it as a black box; experiments use sse.TSet with
	// the paper's parameters. Nil selects sse.Basic.
	SSE sse.Scheme
	// Storage selects the storage engine of the encrypted dictionaries
	// and the tuple store (see package storage). Nil selects the default,
	// storage.Sorted{}.
	Storage storage.Engine
	// Rand drives the build-time shuffles and token permutations; pass a
	// seeded source for reproducible tests. Nil selects a crypto-seeded
	// source. (Key material never comes from this source.) A client locks
	// only its own state, so a Rand must not be given to two clients that
	// can run at once.
	Rand *mrand.Rand
	// MasterKey fixes the 32-byte master secret; nil draws a fresh one.
	MasterKey []byte
	// PadQuadratic pads the Quadratic index to the maximum possible
	// replicated-dataset size so the index size leaks only (n, m), as
	// discussed in Section 4.
	PadQuadratic bool
	// AllowIntersecting disables the Constant schemes' client-side guard
	// against intersecting queries (Section 5). Use only in experiments.
	AllowIntersecting bool
	// QuadraticMaxBits guards the Quadratic scheme against intractable
	// domains; Build fails if the domain exponent exceeds it. Zero
	// selects 12 (m = 4096, i.e. ~8.4M possible subranges).
	QuadraticMaxBits uint8
	// TrapdoorMemo sizes the client's private trapdoor memo (see
	// tdmemo.go); 0 disables memoization.
	TrapdoorMemo int
}

// Client is the data owner: it holds the secret keys of one scheme
// instance, builds encrypted indexes, and runs the query protocol
// against any Source — a local *Index or a dialed *RemoteIndex. It is
// safe for concurrent use: one client per key serves every goroutine.
// Its only mutable state — the randomness that permutes each trapdoor
// and the Constant schemes' history of issued ranges — sits behind mu.
// A Constant query reserves its ranges in the history before it runs
// and releases them if it fails, so of two concurrent intersecting
// queries exactly one proceeds.
type Client struct {
	kind    Kind
	dom     cover.Domain
	sse     sse.Scheme
	storage storage.Engine

	master prf.Key
	kSSE   prf.Key  // primary-index keyword PRF
	kSSE2  prf.Key  // Logarithmic-SRC-i second-index keyword PRF
	kDPRF  dprf.Key // Constant schemes' delegatable PRF seed; evaluated under an index's suite
	// suite is the PRF suite of the indexes this client builds
	// (defaultSuite of its kind). Queries do not use it: they take the
	// suite of the index they run against from its Meta.
	suite prf.Suite
	// storeBlock is the tuple-store key's schedule, built once: a build
	// encrypts, and the fetch round decrypts, a ciphertext per tuple.
	storeBlock cipher.Block
	// pairBlock is the key schedule of Logarithmic-SRC-i's pair key, built
	// once: build seals, and round 1 opens, one pair per distinct value.
	pairBlock cipher.Block

	padQuadratic   bool
	allowIntersect bool
	quadMaxBits    uint8

	mu      sync.Mutex
	rnd     *mrand.Rand // every build and every trapdoor permutation draws from it
	history []Range     // ranges issued or in flight, sorted by Lo (Constant schemes' guard)

	// Trapdoor memo (see tdmemo.go); nil unless enabled.
	tdMemo *trapdoorMemo
}

// NewClient creates an owner for the given scheme over the given domain.
func NewClient(kind Kind, dom cover.Domain, opts Options) (*Client, error) {
	if dom.Bits > cover.MaxBits {
		return nil, fmt.Errorf("core: domain bits %d exceed maximum %d", dom.Bits, cover.MaxBits)
	}
	c := &Client{
		kind:           kind,
		dom:            dom,
		suite:          defaultSuite(kind),
		sse:            opts.SSE,
		storage:        opts.Storage,
		rnd:            opts.Rand,
		padQuadratic:   opts.PadQuadratic,
		allowIntersect: opts.AllowIntersecting,
		quadMaxBits:    opts.QuadraticMaxBits,
	}
	if c.sse == nil {
		c.sse = sse.Basic{}
	}
	if c.quadMaxBits == 0 {
		c.quadMaxBits = 12
	}
	if c.rnd == nil {
		var seed [8]byte
		if _, err := rand.Read(seed[:]); err != nil {
			return nil, fmt.Errorf("core: seeding shuffle source: %w", err)
		}
		c.rnd = mrand.New(mrand.NewSource(int64(binary.BigEndian.Uint64(seed[:]))))
	}
	var err error
	if opts.MasterKey != nil {
		c.master, err = prf.KeyFromBytes(opts.MasterKey)
	} else {
		c.master, err = prf.NewKey(nil)
	}
	if err != nil {
		return nil, err
	}
	c.tdMemo = newTrapdoorMemo(opts.TrapdoorMemo)
	c.kSSE = prf.Derive(c.master, "keywords/primary")
	c.kSSE2 = prf.Derive(c.master, "keywords/positions")
	c.kDPRF = dprf.KeyFromSeed(dom, prf.Derive(c.master, "dprf"))
	var kStore secenc.Key
	storeKey := prf.Derive(c.master, "store")
	copy(kStore[:], storeKey[:secenc.KeySize])
	c.storeBlock = secenc.NewBlock(kStore)
	var kPairs secenc.Key
	pairKey := prf.Derive(c.master, "pairs")
	copy(kPairs[:], pairKey[:secenc.KeySize])
	c.pairBlock = secenc.NewBlock(kPairs)
	return c, nil
}

// Kind returns the scheme the client instantiates.
func (c *Client) Kind() Kind { return c.kind }

// Domain returns the query-attribute domain.
func (c *Client) Domain() cover.Domain { return c.dom }

// SSEName names the underlying SSE construction: "basic", "packed",
// "tset" or "2lev".
func (c *Client) SSEName() string { return c.sse.Name() }

// ResetHistory clears the Constant schemes' intersecting-query guard,
// e.g. after the application re-keys.
func (c *Client) ResetHistory() {
	c.mu.Lock()
	c.history = nil
	c.mu.Unlock()
}

// Index is the server-side state: the encrypted SSE index(es) plus the
// encrypted tuple store. The server holds no keys.
type Index struct {
	kind    Kind
	dom     cover.Domain
	n       int
	posBits uint8 // height of TDAG2 (Logarithmic-SRC-i only)

	primary sse.Index
	aux     sse.Index // Logarithmic-SRC-i's I1
	store   *TupleStore

	// suite is the PRF suite the index was built with: what its SSE
	// dictionaries search under and, for the Constant kinds, the suite of
	// the GGM tree its leaf stags come from. Public, like kind.
	suite prf.Suite

	// Provenance, for Stats and Close: the storage engine the index was
	// built or loaded onto, the serialized blob a loaded index serves in
	// place while that blob is on the heap (its own copy, or the caller's
	// bytes on the disk engine; nil for a memory-mapped file), and the
	// file mapping it serves from (indexes opened with OpenIndexFile).
	engine    string
	retained  []byte
	closer    io.Closer
	fileBytes int64
	mapped    bool
}

// IndexMeta is the public metadata of an index — exactly the L1 leakage
// plus protocol bookkeeping.
type IndexMeta struct {
	Kind       Kind
	DomainBits uint8
	PosBits    uint8
	N          int
	// Suite is the PRF suite the index was built with. An owner of a
	// Constant scheme derives its GGM tokens under it, so one client
	// answers from indexes of every suite.
	Suite prf.Suite
}

// Kind returns the scheme that built the index.
func (x *Index) Kind() Kind { return x.kind }

// Domain returns the domain the index was built over.
func (x *Index) Domain() cover.Domain { return x.dom }

// N returns the number of indexed tuples (the L1 leakage).
func (x *Index) N() int { return x.n }

// Size returns the serialized size of the encrypted index(es) in bytes —
// the quantity of Figure 5(a) and Table 2 ("only the replicated tuple ids
// and their associated keywords", i.e. excluding the tuple store).
func (x *Index) Size() int { return x.sizes().Total() }

// sizes is the breakdown of Size, summed over the index(es).
func (x *Index) sizes() sse.Sizes {
	s := x.primary.Sizes()
	if x.aux != nil {
		s = s.Add(x.aux.Sizes())
	}
	return s
}

// Postings returns the number of real postings across the index(es): the
// size of the replicated dataset D'.
func (x *Index) Postings() int {
	p := x.primary.Postings()
	if x.aux != nil {
		p += x.aux.Postings()
	}
	return p
}

// StoreSize returns the encrypted tuple store footprint, reported
// separately because the paper's index-size metric excludes it.
func (x *Index) StoreSize() int { return x.store.Size() }

// IndexStats is the operational profile of a served index — what an
// operator needs to size a deployment: the scheme, the logical sizes,
// the storage engine, and where the bytes actually live (heap vs mapped
// file).
type IndexStats struct {
	// Kind is the scheme that built the index.
	Kind Kind
	// N is the number of indexed tuples.
	N int
	// Postings is the replicated-dataset size across the index(es).
	Postings int
	// IndexBytes is the serialized size of the encrypted index(es) — the
	// paper's index-size metric: HeaderBytes+LabelBytes+CellBytes.
	IndexBytes int
	// HeaderBytes, LabelBytes and CellBytes break IndexBytes down: the
	// constructions' fixed headers, the cell labels at the width their
	// segments store them, and the cells, 2lev's array blocks included.
	HeaderBytes, LabelBytes, CellBytes int
	// SlackBytes is the part of LabelBytes+CellBytes that T-set padding
	// records take.
	SlackBytes int
	// DirBytes is the segments' radix directories, which IndexBytes
	// leaves out, as it does StoreBytes.
	DirBytes int
	// StoreBytes is the encrypted tuple store's serialized footprint.
	StoreBytes int
	// Engine names the storage engine the records live on.
	Engine string
	// Resident approximates the heap bytes the index pins. A disk-engine
	// index served from a mapped file pins almost nothing — its records
	// page in from FileBytes on demand.
	Resident int64
	// FileBytes is the size of the backing file for indexes opened with
	// OpenIndexFile, zero otherwise.
	FileBytes int64
}

// Stats reports the index's operational profile.
func (x *Index) Stats() IndexStats {
	sz := x.sizes()
	s := IndexStats{
		Kind:        x.kind,
		N:           x.n,
		Postings:    x.Postings(),
		IndexBytes:  sz.Total(),
		HeaderBytes: sz.Header,
		LabelBytes:  sz.Labels,
		CellBytes:   sz.Cells,
		SlackBytes:  sz.Slack,
		DirBytes:    sz.Dir,
		StoreBytes:  x.store.Size(),
		Engine:      x.engine,
		FileBytes:   x.fileBytes,
	}
	if s.Engine == "" {
		s.Engine = storage.Default().Name()
	}
	res := int64(x.primary.Resident()) + int64(x.store.cts.Resident())
	if x.aux != nil {
		res += int64(x.aux.Resident())
	}
	if x.retained != nil {
		// A loaded blob served in place from the heap: the whole blob
		// stays pinned by the aliasing backends.
		res += int64(len(x.retained))
	}
	s.Resident = res
	return s
}

// Close releases the file mapping behind an index opened with
// OpenIndexFile; it is a no-op (and always safe) for any other index.
// The index must not be searched after Close.
func (x *Index) Close() error {
	if x.closer == nil {
		return nil
	}
	c := x.closer
	x.closer = nil
	return c.Close()
}

// Store exposes the encrypted tuple collection (ids and ciphertexts are
// server-visible by design).
func (x *Index) Store() *TupleStore { return x.store }

// technique returns the covering technique of the Constant/Logarithmic
// schemes.
func (c *Client) technique() cover.Technique {
	switch c.kind {
	case ConstantBRC, LogarithmicBRC:
		return cover.BRCTechnique
	default:
		return cover.URCTechnique
	}
}

// Trapdoor is one round's query message. Exactly one of Stags and GGM is
// populated: the Constant schemes ship GGM delegation tokens, everything
// else ships SSE stags. Tokens are already permuted.
type Trapdoor struct {
	round int
	Stags []sse.Stag
	GGM   []dprf.Token

	// wire caches the MarshalBinary form for memoized trapdoors that are
	// replayed across many queries. Trapdoors are immutable once built,
	// so the cached bytes stay valid; callers treat the marshaled slice
	// as read-only (the transport layer copies it into its write queue).
	wire []byte
}

// Tokens returns the number of tokens in the trapdoor.
func (t *Trapdoor) Tokens() int { return len(t.Stags) + len(t.GGM) }

// Bytes returns the serialized trapdoor size: 32 bytes per stag, 33 bytes
// per GGM token (value plus level). This is the "query size" of
// Figure 8(a).
func (t *Trapdoor) Bytes() int {
	return len(t.Stags)*sse.StagSize + len(t.GGM)*dprf.TokenSize
}

// Response is the server's answer to one trapdoor round: the decrypted
// SSE payloads grouped per token (the "result partitioning" the
// Logarithmic-BRC/URC leakage definition names). A round searches one
// SSE index, so its payloads have one width: Data holds them back to
// back, Width bytes each, group after group in token order, and Ends[g]
// is the number of payloads up to the end of group g. The zero Response
// has no groups.
type Response struct {
	Width int
	Data  []byte
	Ends  []int
}

// Items counts the payloads across all groups.
func (r *Response) Items() int {
	if len(r.Ends) == 0 {
		return 0
	}
	return r.Ends[len(r.Ends)-1]
}

// group returns the bounds of group g's payloads, counted in payloads.
func (r *Response) group(g int) (lo, hi int) {
	if g > 0 {
		lo = r.Ends[g-1]
	}
	return lo, r.Ends[g]
}

// QueryStats aggregates the observable costs and leakage of one query.
type QueryStats struct {
	// Rounds is the number of owner↔server round trips (2 for SRC-i).
	Rounds int
	// Tokens and TokenBytes measure the query size (Figure 8a).
	Tokens     int
	TokenBytes int
	// ResponseItems counts every item the server shipped back, including
	// SRC-i round-1 pair blobs.
	ResponseItems int
	// Raw is the number of ids the server returned; Matches the number
	// that satisfy the query; FalsePositives their difference (Figure 6).
	Raw            int
	Matches        int
	FalsePositives int
	// Groups are the per-token result group sizes — the structural
	// leakage of Logarithmic-BRC/URC (for SRC-i, round 2's groups). A
	// single query lists them in trapdoor order, which is permuted; a
	// batch lists each range's in its cover's order.
	Groups []int
	// TokenLevels are the GGM token levels the Constant schemes disclose,
	// in the order of Groups.
	TokenLevels []uint8
	// ServerTime and OwnerTime split the wall-clock cost of the query.
	ServerTime time.Duration
	OwnerTime  time.Duration
}

// Add folds the stats of one part of a fanned-out query into s: counters
// and times sum (the times measure total work, not wall clock), Rounds
// is the maximum (the parts' rounds overlap), and Groups and TokenLevels
// concatenate in the order the parts are added.
func (s *QueryStats) Add(t QueryStats) {
	s.Rounds = max(s.Rounds, t.Rounds)
	s.Tokens += t.Tokens
	s.TokenBytes += t.TokenBytes
	s.ResponseItems += t.ResponseItems
	s.Raw += t.Raw
	s.Matches += t.Matches
	s.FalsePositives += t.FalsePositives
	s.Groups = append(s.Groups, t.Groups...)
	s.TokenLevels = append(s.TokenLevels, t.TokenLevels...)
	s.ServerTime += t.ServerTime
	s.OwnerTime += t.OwnerTime
}

// Result is the outcome of a full query protocol.
type Result struct {
	// Matches holds the ids of tuples satisfying the query, after the
	// owner discarded false positives.
	Matches []ID
	// Raw holds the ids exactly as the server returned them.
	Raw []ID
	// Stats carries cost and leakage accounting.
	Stats QueryStats
}

// QueryContext runs the scheme's full query protocol — one round, or
// two for Logarithmic-SRC-i — against any Source, filters false
// positives owner-side, and returns the matches with cost and leakage
// accounting. It is the batch protocol on one range (see
// QueryBatchInto). Every round honours ctx; against a remote source an
// expired ctx abandons the in-flight round trip at once. The Constant
// schemes reserve q in the history before the protocol runs and
// release it if the protocol fails, so a failed query never poisons a
// later retry of the same range.
func (c *Client) QueryContext(ctx context.Context, s Source, q Range) (*Result, error) {
	var one [1]*Result
	br := BatchResult{Results: one[:0]}
	if err := c.QueryBatchInto(ctx, s, []Range{q}, &br); err != nil {
		return nil, err
	}
	return br.Results[0], nil
}

// QueryRemoteContext is QueryContext.
//
// Deprecated: call QueryContext, which takes any Source.
func (c *Client) QueryRemoteContext(ctx context.Context, s Source, q Range) (*Result, error) {
	return c.QueryContext(ctx, s, q)
}

// QueryServerContext is QueryContext against a Server.
//
// Deprecated: call QueryContext with a Source.
func (c *Client) QueryServerContext(ctx context.Context, s Server, q Range) (*Result, error) {
	return c.QueryContext(ctx, FromServer(s), q)
}

// Trapdoor produces the first-round query message for q without running
// the protocol. It is the hook benchmarks use to time server-side Search
// in isolation, and what the update layer's forward-privacy tests replay
// against later epochs. It deliberately bypasses the Constant schemes'
// intersection guard and records no history; use QueryContext for real
// traffic. With no index to ask, it derives under the suite this client
// builds with, replaying the trapdoor memo as a query does: against an
// index of another suite (IndexMeta.Suite) its tokens match nothing,
// where QueryContext reads the index's suite and derives for it.
func (c *Client) Trapdoor(q Range) (*Trapdoor, error) {
	if err := c.dom.CheckRange(q.Lo, q.Hi); err != nil {
		return nil, err
	}
	p, err := c.planRound1([]Range{q}, c.suite)
	if err != nil {
		return nil, err
	}
	return p.trap, nil
}

// SearchContext executes one server-side round. The server only ever
// sees the trapdoor; scheme-specific expansion (Constant's GGM
// derivation) happens here, on the untrusted side, exactly as in the
// paper's Search algorithms.
func (x *Index) SearchContext(ctx context.Context, t *Trapdoor) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case len(t.GGM) > 0:
		return x.searchConstant(t)
	case t.round == 2:
		return x.searchIndex(x.primary, t.Stags)
	case x.kind == LogarithmicSRCi:
		return x.searchIndex(x.aux, t.Stags)
	default:
		return x.searchIndex(x.primary, t.Stags)
	}
}

// searchIndex searches every stag against one index, in one pass: one
// group per stag.
func (x *Index) searchIndex(idx sse.Index, stags []sse.Stag) (*Response, error) {
	data, ends, err := idx.Search(stags, nil, make([]int, 0, len(stags)))
	if err != nil {
		return nil, err
	}
	return &Response{Width: idx.Width(), Data: data, Ends: ends}, nil
}
