// Package core implements the paper's contribution: the Range Searchable
// Symmetric Encryption (RSSE) framework and its seven schemes —
// Quadratic (Section 4), Constant-BRC/URC (Section 5), Logarithmic-BRC/URC
// (Section 6.1), Logarithmic-SRC (Section 6.2) and Logarithmic-SRC-i
// (Section 6.3).
//
// Every scheme reduces a range query over a single attribute to one or
// more keyword searches against a static single-keyword SSE index
// (package sse), exactly as the paper prescribes: BuildIndex assigns
// range-derived keywords to tuples, Trpdr maps a query range to keyword
// tokens via a range-covering technique (package cover), and Search is
// the black-box SSE search. The schemes differ only in the keyword
// assignment, the covering technique, and — for Logarithmic-SRC-i — an
// extra interactive round.
package core

import (
	"errors"
	"fmt"

	"rsse/internal/prf"
)

// Value is a query-attribute value: a non-negative integer in the domain
// (the paper maps arbitrary discrete domains onto such integers).
type Value = uint64

// ID is a unique tuple identifier. IDs are public to the server (access
// pattern leakage), as in all SSE literature.
type ID = uint64

// Tuple is one data item: the (id, a) pair of Section 3 plus an optional
// application payload stored encrypted alongside the index.
type Tuple struct {
	ID      ID
	Value   Value
	Payload []byte
}

// Range is a closed query interval [Lo, Hi] over the domain.
type Range struct {
	Lo, Hi Value
}

// Size returns the number of domain values the range spans (R in the
// paper's cost analysis).
func (r Range) Size() uint64 { return r.Hi - r.Lo + 1 }

// Contains reports whether v falls inside the range.
func (r Range) Contains(v Value) bool { return v >= r.Lo && v <= r.Hi }

// Intersects reports whether two ranges share at least one value.
func (r Range) Intersects(o Range) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// String renders the range as [lo, hi].
func (r Range) String() string { return fmt.Sprintf("[%d, %d]", r.Lo, r.Hi) }

// Kind selects one of the paper's schemes.
type Kind int

const (
	// Quadratic is the naive baseline of Section 4: one keyword per
	// possible subrange, O(n m^2) storage, single-token queries, maximal
	// security. Only usable on tiny domains.
	Quadratic Kind = iota
	// ConstantBRC is the DPRF-based scheme of Section 5 with best range
	// cover trapdoors: O(n) storage, O(log R) tokens, O(R + r) search.
	ConstantBRC
	// ConstantURC is Constant with uniform range cover trapdoors: same
	// costs, with a token-level multiset independent of range position.
	ConstantURC
	// LogarithmicBRC is the Section 6.1 scheme: one keyword per dyadic
	// node on each tuple's root-to-leaf path, O(n log m) storage,
	// O(log R + r) search, no false positives.
	LogarithmicBRC
	// LogarithmicURC is LogarithmicBRC with URC trapdoors.
	LogarithmicURC
	// LogarithmicSRC is the Section 6.2 scheme: TDAG keywords and a
	// single-token query; false positives grow up to O(n) under skew.
	LogarithmicSRC
	// LogarithmicSRCi is the Section 6.3 scheme: a double index and an
	// interactive two-round query that caps false positives at O(R + r).
	LogarithmicSRCi
)

// Kinds lists every scheme, in the paper's presentation order.
func Kinds() []Kind {
	return []Kind{
		Quadratic,
		ConstantBRC, ConstantURC,
		LogarithmicBRC, LogarithmicURC,
		LogarithmicSRC, LogarithmicSRCi,
	}
}

// String returns the paper's name for the scheme.
func (k Kind) String() string {
	switch k {
	case Quadratic:
		return "Quadratic"
	case ConstantBRC:
		return "Constant-BRC"
	case ConstantURC:
		return "Constant-URC"
	case LogarithmicBRC:
		return "Logarithmic-BRC"
	case LogarithmicURC:
		return "Logarithmic-URC"
	case LogarithmicSRC:
		return "Logarithmic-SRC"
	case LogarithmicSRCi:
		return "Logarithmic-SRC-i"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses the paper's scheme names (case-sensitive).
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// defaultSuite is the one table of which PRF suite BuildIndex gives a
// scheme's indexes. Suite 3 is the PRF with no key schedule: one
// compression per GGM child, per cell label and, on the owner's side,
// per keyword stag (stag.go), with every cell padded from F, so a
// search that hits runs no AES key schedule either. Logarithmic-BRC and
// Quadratic stay on the paper's suite 0 (ARCHITECTURE, "PRF suites").
// The choice is recorded in each index (see wire.go) and read back from
// there: changing a row only affects indexes built afterwards.
func defaultSuite(k Kind) prf.Suite {
	switch k {
	case ConstantBRC, ConstantURC, LogarithmicURC, LogarithmicSRC, LogarithmicSRCi:
		return prf.SuiteBlockPad
	default:
		return prf.SuiteSHA512
	}
}

// HasFalsePositives reports whether the scheme can return non-matching
// ids (Table 1's "False Posit." column).
func (k Kind) HasFalsePositives() bool {
	return k == LogarithmicSRC || k == LogarithmicSRCi
}

// Interactive reports whether queries need more than one round.
func (k Kind) Interactive() bool { return k == LogarithmicSRCi }

// Errors returned by the schemes.
var (
	// ErrIntersectingQuery is returned by the Constant schemes when a new
	// query intersects a previous one: the DPRF construction cannot be
	// proven adaptively secure for intersecting ranges (Section 5), so the
	// client enforces the constraint at the application level, exactly as
	// the paper suggests.
	ErrIntersectingQuery = errors.New("core: constant schemes forbid intersecting range queries")
	// ErrDuplicateID is returned by BuildIndex when two tuples share an id.
	ErrDuplicateID = errors.New("core: duplicate tuple id")
	// ErrValueOutsideDomain is returned when a tuple value or query bound
	// exceeds the domain.
	ErrValueOutsideDomain = errors.New("core: value outside domain")
	// ErrKindMismatch is returned when an index is queried by a client of
	// a different scheme.
	ErrKindMismatch = errors.New("core: index was built by a different scheme")
	// ErrTokenLevel is returned by Search for a GGM token whose level
	// exceeds the index's domain height: no honest owner sends one.
	ErrTokenLevel = errors.New("core: GGM token level above the index's domain")
	// ErrDomainTooLarge guards Quadratic against accidental use on domains
	// where its O(m^2) keyword space is intractable.
	ErrDomainTooLarge = errors.New("core: domain too large for the Quadratic scheme")
)
