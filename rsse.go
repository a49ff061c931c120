package rsse

import (
	"fmt"
	"io"
	"os"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/storage"
)

// Core data types, shared with the scheme implementations.
type (
	// Tuple is one data item: a unique ID, its query-attribute Value, and
	// an optional application Payload stored encrypted on the server.
	Tuple = core.Tuple
	// Range is a closed query interval [Lo, Hi].
	Range = core.Range
	// ID is a tuple identifier (visible to the server — access pattern).
	ID = core.ID
	// Value is a query-attribute value.
	Value = core.Value
	// Kind selects one of the paper's schemes.
	Kind = core.Kind
	// Result is a query outcome: Matches (exact), Raw (as returned by the
	// server, possibly with false positives) and Stats.
	Result = core.Result
	// QueryStats carries per-query cost and leakage accounting.
	QueryStats = core.QueryStats
	// BatchResult is a batched query outcome: one Result per input range
	// plus batch-level dedup and cost accounting.
	BatchResult = core.BatchResult
	// BatchStats carries the batch-level accounting of one batched query:
	// cover-node demand vs unique tokens sent (DedupRatio), rounds, bytes
	// and the wall-clock split.
	BatchStats = core.BatchStats
	// Trapdoor is a single round's encrypted query message. Advanced use
	// only (benchmarks, protocol inspection); normal callers use
	// QueryContext.
	Trapdoor = core.Trapdoor
	// Index is the server-side encrypted state.
	Index = core.Index
	// Domain is the query-attribute domain {0..2^Bits-1}.
	Domain = cover.Domain
)

// The paper's schemes, in presentation order (Sections 4-6).
const (
	// Quadratic: one keyword per possible subrange. Maximal security,
	// O(n m^2) storage; tiny domains only (Section 4).
	Quadratic = core.Quadratic
	// ConstantBRC: DPRF-based, O(n) storage, best range cover trapdoors.
	// Non-intersecting queries only (Section 5).
	ConstantBRC = core.ConstantBRC
	// ConstantURC: ConstantBRC with position-hiding uniform range covers.
	ConstantURC = core.ConstantURC
	// LogarithmicBRC: dyadic path keywords, O(n log m) storage, exact
	// results (Section 6.1).
	LogarithmicBRC = core.LogarithmicBRC
	// LogarithmicURC: LogarithmicBRC with uniform range covers.
	LogarithmicURC = core.LogarithmicURC
	// LogarithmicSRC: TDAG single-keyword queries; false positives under
	// skew (Section 6.2).
	LogarithmicSRC = core.LogarithmicSRC
	// LogarithmicSRCi: interactive double index; the paper's best
	// security/efficiency trade-off (Section 6.3).
	LogarithmicSRCi = core.LogarithmicSRCi
)

// Kinds lists every scheme.
func Kinds() []Kind { return core.Kinds() }

// KindByName parses a scheme name as printed by Kind.String, e.g.
// "Logarithmic-SRC-i".
func KindByName(name string) (Kind, error) { return core.KindByName(name) }

// Errors re-exported from the scheme layer.
var (
	// ErrIntersectingQuery: the Constant schemes reject queries that
	// intersect earlier ones (an inherent DPRF limitation, Section 5).
	ErrIntersectingQuery = core.ErrIntersectingQuery
	// ErrDuplicateID: BuildIndex requires unique tuple ids.
	ErrDuplicateID = core.ErrDuplicateID
	// ErrValueOutsideDomain: a tuple value or query bound exceeds 2^bits.
	ErrValueOutsideDomain = core.ErrValueOutsideDomain
	// ErrKindMismatch: an index was queried by a client of another scheme.
	ErrKindMismatch = core.ErrKindMismatch
	// ErrDomainTooLarge: the Quadratic scheme refuses intractable domains.
	ErrDomainTooLarge = core.ErrDomainTooLarge
)

// IndexStats is the operational profile of an index: scheme, logical
// sizes, storage engine, and where the bytes live (heap vs mapped file).
// Obtained from Index.Stats and Registry.Stats.
type IndexStats = core.IndexStats

// IndexMeta is an index's public metadata (scheme, domain, tuple count,
// PRF suite) — exactly the L1 leakage plus protocol bookkeeping.
type IndexMeta = core.IndexMeta

// PRFSuite names the hash under an index's PRFs (IndexMeta.Suite). It
// is recorded in the index by whoever built it and read back by whoever
// serves or queries it; there is nothing to configure.
type PRFSuite = prf.Suite

const (
	// SuiteSHA512 is HMAC-SHA-512 truncated to 32 bytes — the paper's
	// choice, and what every index built before suites existed is.
	SuiteSHA512 = prf.SuiteSHA512
	// SuiteSHA256 is HMAC-SHA-256, what one release's BuildIndex gave the
	// Constant schemes. They now build PRFSuite(3), "sha256-block-pad":
	// one SHA-256 compression per PRF value, keyed through the message,
	// with every cell padded from it — as do Logarithmic-URC,
	// Logarithmic-SRC and Logarithmic-SRC-i. PRFSuite(2),
	// "sha256-block", is the same PRF with AES-CTR cells.
	SuiteSHA256 = prf.SuiteSHA256
)

// UnmarshalIndex reconstructs an Index serialized with
// Index.MarshalBinary — how a server restores persisted state. The blob
// contains no key material; only the matching client can query it.
// Blobs in the v1 record stream of releases before PR 2 are refused as
// corrupt: re-save them with a release up to PR 24 (UnmarshalIndex, then
// MarshalBinary) or rebuild them.
func UnmarshalIndex(data []byte) (*Index, error) { return core.UnmarshalIndex(data) }

// UnmarshalIndexWith reconstructs a serialized Index onto a named
// storage engine. Both serve the blob's segments in place: "sorted"
// (the default) from one copy of data it makes first, so the index
// never aliases data; "disk" from data itself, with zero copies — the
// returned index then aliases data, which must stay valid and
// unmodified while the index is in use. "map" is a deprecated alias of
// "sorted". The engine is a local representation choice and never
// affects the wire format.
func UnmarshalIndexWith(data []byte, engine string) (*Index, error) {
	eng, err := storage.ByName(engine)
	if err != nil {
		return nil, err
	}
	return core.UnmarshalIndexWith(data, eng)
}

// OpenIndexFile memory-maps (or, where mmap is unavailable, reads) an
// index file and reconstructs it onto the named storage engine. With
// "disk" this is the lazy-serving path: open cost is
// near-constant regardless of index size — section headers plus one
// sequential checksum pass — and queries answer straight from the
// mapping, so resident memory stays near zero until data pages in.
// With "sorted" the file is copied once and released. Close the
// returned index to release the mapping when done.
func OpenIndexFile(path, engine string) (*Index, error) {
	eng, err := storage.ByName(engine)
	if err != nil {
		return nil, err
	}
	return core.OpenIndexFile(path, eng)
}

// PeekIndexFile reads an index file's public metadata from its 16-byte
// header without loading the body — cheap enough to run over a whole
// directory before deciding what to serve. A header naming a wire
// version, scheme kind or PRF suite this build does not read is refused
// as corrupt.
func PeekIndexFile(path string) (IndexMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return IndexMeta{}, err
	}
	defer f.Close()
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return IndexMeta{}, fmt.Errorf("%s: %w", path, core.ErrCorruptIndex)
	}
	meta, err := core.PeekMeta(hdr)
	if err != nil {
		return IndexMeta{}, fmt.Errorf("%s: %w", path, err)
	}
	return meta, nil
}

// StorageEngines lists the available storage engine names for
// UnmarshalIndexWith, OpenIndexFile and WithStorage.
func StorageEngines() []string {
	out := make([]string, 0, 3)
	for _, e := range storage.Engines() {
		out = append(out, e.Name())
	}
	return out
}

// NewDomain returns the domain {0..2^bits-1}; bits at most 62.
func NewDomain(bits uint8) (Domain, error) { return cover.NewDomain(bits) }

// FitDomain returns the smallest domain containing maxValue — convenient
// when the attribute's maximum is known but not a power of two (the paper
// scales arbitrary discrete domains this way).
func FitDomain(maxValue Value) Domain { return cover.FitDomain(maxValue) }
