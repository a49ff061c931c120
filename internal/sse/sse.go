// Package sse implements static single-keyword Searchable Symmetric
// Encryption as an encrypted multimap, the substrate every RSSE scheme in
// the paper builds on (Sections 2.2 and 3).
//
// The package deliberately works with externally supplied keyword tokens
// ("stags", 32-byte pseudorandom strings): a client normally derives
// stag = PRF(k, keyword), but the Constant-BRC/URC schemes of Section 5
// substitute a Delegatable PRF value for the same role. Everything below
// the stag — cell placement, cell encryption, padding — is identical in
// both cases, which is exactly the black-box property the paper exploits.
//
// Three constructions are provided:
//
//   - Basic: the Πbas dictionary of Cash et al. (NDSS'14). One cell per
//     posting at pseudorandom labels.
//   - Packed: the Πpack variant. B postings per encrypted, padded block.
//   - TSet: the bucketized T-set of Cash et al. (CRYPTO'13), the scheme
//     the paper instantiates its experiments with (S = 6000, K = 1.1).
//   - TwoLevel: the dictionary-plus-array "2lev" layout of Cash et al.
//     (NDSS'14), for 8-byte payloads.
//
// All constructions shuffle each posting list at build time, serialize
// as one section format (MarshalSection, OpenSection), and report their
// size as the paper accounts it — the quantity plotted in Figure 5(a)
// and Table 2. Every Build runs in the same three phases (build.go): a
// serial plan that makes every RNG draw, a parallel seal of each stag's
// labels and cells, and a serial placement — so its bytes do not depend
// on the number of workers.
//
// Physical storage of the encrypted dictionaries is delegated to
// package storage: Build takes a storage.Engine choosing the label→cell
// representation (nil selects the default, Sorted), OpenSection serves a
// section's segments in place, and the constructions address cells only
// through storage.Backend.
package sse

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"

	"rsse/internal/prf"
	"rsse/internal/secenc"
	"rsse/internal/storage"
)

// StagSize is the byte length of a search tag.
const StagSize = 32

// LabelSize is the byte length of a cell label.
const LabelSize = 16

// Stag is a keyword search tag: a pseudorandom value that unlocks exactly
// one posting list.
type Stag [StagSize]byte

// Entry is one keyword's posting list prepared for indexing: the keyword's
// stag plus its payloads (fixed-width opaque values, typically 8-byte
// big-endian tuple ids) back to back in Data, count·width bytes. A build
// reads Data and never writes it, so entries may share one array.
type Entry struct {
	Stag Stag
	Data []byte
}

// Scheme builds encrypted indexes.
type Scheme interface {
	// Name identifies the construction ("basic", "packed", "tset").
	Name() string
	// Build encrypts the entries into a searchable index. width is the
	// exact byte length of every payload. rnd drives the posting-list
	// shuffles and padding; if nil a crypto-seeded source is used. eng
	// selects the dictionary's physical layout; nil selects the default
	// engine. suite is the PRF under everything derived from a stag —
	// working keys, cell labels, bucket placement — and is what the
	// built index searches with; the caller records it next to the
	// serialized index, which does not carry it.
	Build(entries []Entry, width int, rnd *mrand.Rand, eng storage.Engine, suite prf.Suite) (Index, error)
}

// Index is a server-side encrypted multimap.
type Index interface {
	// Search appends to data the payloads stored under each of stags,
	// Width() bytes each, in stag order, and to ends one entry per stag:
	// the number of payloads data holds up to the end of that stag's.
	// Unknown stags are indistinguishable from empty posting lists.
	// Searching one stag is searching a slice of one.
	Search(stags []Stag, data []byte, ends []int) ([]byte, []int, error)
	// Width returns the payload width the index was built with.
	Width() int
	// Postings returns the number of real (non-padding) payloads stored.
	Postings() int
	// Sizes returns the index's size in bytes as the paper's Fig. 5a
	// accounts it — the storage cost a server pays, padding included —
	// part by part. Its Total is not the length of MarshalSection's
	// output.
	Sizes() Sizes
	// Resident approximates the heap bytes the index pins for its
	// dictionaries: what a built index sealed, and zero for an opened
	// one, whose cells are served in place from the section's bytes.
	Resident() int
}

// Sizes breaks an index's size down. The size is Header+Labels+Cells:
// the construction's header, then every record's label, at the width
// its segment stores, and its cell.
type Sizes struct {
	Header int // the construction's fixed header fields
	Labels int // the labels, at the width the segments store them
	Cells  int // the cells, and 2lev's array blocks
	Slack  int // of Labels+Cells, what TSet's padding records take
	Dir    int // the segments' radix directories, which the size leaves out
}

// Total is the index's size: Header+Labels+Cells.
func (s Sizes) Total() int { return s.Header + s.Labels + s.Cells }

// Add is s and o summed field by field.
func (s Sizes) Add(o Sizes) Sizes {
	return Sizes{s.Header + o.Header, s.Labels + o.Labels, s.Cells + o.Cells, s.Slack + o.Slack, s.Dir + o.Dir}
}

// dictSizes is the breakdown of a construction whose fixed header is
// header bytes and whose records are those of cells.
func dictSizes(header int, cells storage.Backend) Sizes {
	l := cells.Layout()
	return Sizes{Header: header, Labels: l.KeyBytes, Cells: l.ValueBytes, Dir: l.DirBytes}
}

// Construction section tags (see MarshalSection).
const (
	tagBasic    byte = 1
	tagPacked   byte = 2
	tagTSet     byte = 3
	tagTwoLevel byte = 4
)

// Errors shared by the constructions.
var (
	ErrWidth         = errors.New("sse: payload width must be positive")
	ErrPayloadWidth  = errors.New("sse: payload does not match declared width")
	ErrDuplicateStag = errors.New("sse: duplicate stag across entries")
	ErrCorrupt       = errors.New("sse: corrupt serialized index")
)

// ByName returns the construction registered under name, using its default
// parameters.
func ByName(name string) (Scheme, error) {
	switch name {
	case "basic":
		return Basic{}, nil
	case "packed":
		return Packed{}, nil
	case "tset":
		return TSet{}, nil
	case "2lev":
		return TwoLevel{}, nil
	default:
		return nil, fmt.Errorf("sse: unknown construction %q", name)
	}
}

// newRand returns rnd, or a fresh math/rand source seeded from
// crypto/rand when rnd is nil.
func newRand(rnd *mrand.Rand) *mrand.Rand {
	if rnd != nil {
		return rnd
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		panic("sse: cannot seed shuffle source: " + err.Error())
	}
	return mrand.New(mrand.NewSource(int64(binary.BigEndian.Uint64(seed[:]))))
}

// checkEntries validates widths and stag uniqueness and returns the total
// number of payloads.
func checkEntries(entries []Entry, width int) (int, error) {
	if width <= 0 {
		return 0, ErrWidth
	}
	seen := make(map[Stag]struct{}, len(entries))
	total := 0
	for _, e := range entries {
		if _, dup := seen[e.Stag]; dup {
			return 0, ErrDuplicateStag
		}
		seen[e.Stag] = struct{}{}
		if len(e.Data)%width != 0 {
			return 0, fmt.Errorf("%w: %d bytes, not a multiple of %d", ErrPayloadWidth, len(e.Data), width)
		}
		total += len(e.Data) / width
	}
	return total, nil
}

// Per-stag working keys. Everything a construction needs is derived from
// the stag itself, so search requires no additional secrets.
type stagKeys struct {
	loc prf.Key    // label derivation; under F the stag itself
	enc secenc.Key // AES cell key; zero under suite 3, which pads cells from F
}

// deriveStagKeys keys h to the stag — one key schedule for all of the
// stag's derivations, under h's suite — and derives the two working keys
// every construction uses. h stays keyed to the stag, so TSet derives its
// salted bucket key (which only it reads) with one more pass. Suites 2
// and 3 have no location key: labels are F of the stag itself, and h is
// not touched.
func deriveStagKeys(suite prf.Suite, h *prf.Hasher, stag Stag) stagKeys {
	if suite.UsesF() {
		return stagKeys{loc: prf.Key(stag), enc: cellKey(suite, h, stag)}
	}
	h.SetKey(prf.Key(stag))
	return stagKeys{loc: h.Derive("sse/loc"), enc: cellKey(suite, h, stag)}
}

// cellKey derives the stag's AES cell key: the labelled KDF on h, which
// the caller has keyed to the stag, or under suite 2 F(stag,'e',0).
// Suite 3 has none: its cells are padded from F (cellPad).
func cellKey(suite prf.Suite, h *prf.Hasher, stag Stag) (enc secenc.Key) {
	var full prf.Key
	switch {
	case suite == prf.SuiteBlockPad:
		return enc
	case suite.UsesF():
		full = prf.F(prf.Key(stag), 'e', 0)
	default:
		full = h.Derive("sse/enc")
	}
	copy(enc[:], full[:])
	return enc
}

// bucketKey derives TSet's salted bucket key from h, keyed to the stag
// by deriveStagKeys, or under F F(stag,'b',salt).
func bucketKey(suite prf.Suite, h *prf.Hasher, stag Stag, salt uint64) prf.Key {
	if suite.UsesF() {
		return prf.F(prf.Key(stag), 'b', salt)
	}
	return h.DeriveN("sse/bkt", salt)
}

// cellPad is suite 3's cell encryption: each cell is XORed with a pad
// that F derives from the stag, so neither the build nor a search
// schedules an AES key.
//
//   - A cell found at label i is cell number i. The first LabelSize
//     bytes of its pad are the spare half of its label's PRF output,
//     F(stag,'l',i)[16:32], which deriving the label has already
//     computed.
//   - Every further byte, and every byte of a cell without a label of
//     its own (2lev's array block in slot j, cell number 1+j), comes from
//     F(k_cell,'p', n<<32|b) for cell number n and b = 0, 1, …, where
//     k_cell = F(stag,'e',0) is derived on first need.
//
// A stag's cell numbers are unique — they are the AES-CTR nonces of
// suites 0–2 — and fewer than 2^32, as is b for any cell under 128 GiB,
// so no two cells of a stag share a pad counter.
type cellPad struct {
	kc    prf.Key // k_cell, once keyed
	keyed bool
}

// reset forgets k_cell: the next cell may be another stag's.
func (p *cellPad) reset() { p.keyed = false }

// xor sets dst to src XOR the pad of cell n of stag. spare is the unused
// half of the cell's label output, or nil for a cell without a label.
// dst may alias src exactly.
func (p *cellPad) xor(stag *Stag, n uint64, spare, dst, src []byte) {
	k := subtle.XORBytes(dst, src, spare)
	if k == len(src) {
		return
	}
	if !p.keyed {
		p.kc, p.keyed = prf.F(prf.Key(*stag), 'e', 0), true
	}
	ctr := n << 32
	var b0, b1 [prf.KeySize]byte
	for ; len(src)-k > prf.KeySize; ctr += 2 {
		prf.F2(&b0, &b1, &p.kc, 'p', ctr, &p.kc, 'p', ctr+1)
		k += subtle.XORBytes(dst[k:], src[k:], b0[:])
		k += subtle.XORBytes(dst[k:], src[k:], b1[:])
	}
	if k < len(src) {
		b0 = prf.F(p.kc, 'p', ctr)
		subtle.XORBytes(dst[k:], src[k:], b0[:])
	}
}

// cellBuilder starts a label→cell space on eng (nil = default engine).
// Its keys are PRF outputs, or random under TSet's padding: pseudorandom,
// as a space of 16-byte keys must be, so it seals each label at the
// width a probe needs (segment version 3).
func cellBuilder(eng storage.Engine, capacityHint int) storage.Builder {
	return storage.OrDefault(eng).NewBuilder(LabelSize, capacityHint)
}

// errLabelCollision wraps a builder error in the constructions' label
// collision diagnosis (duplicates can only arise from duplicate or
// related stags — or, vanishingly unlikely, colliding PRF outputs).
func errLabelCollision(err error) error {
	return fmt.Errorf("sse: label collision (duplicate or related stags?): %w", err)
}
