// Package storage separates the RSSE query structures from their physical
// representation. Every server-side component stores records in one of two
// keyed byte spaces — the SSE dictionaries map pseudorandom labels, probed
// with 16 bytes and stored at the width a probe needs (segment version 3),
// to encrypted cells; the tuple store maps 8-byte ids to ciphertexts — and
// both speak to those spaces only through the Backend interface defined
// here. Schemes choose an Engine at build/unmarshal time; nothing above
// this package knows (or cares) how the records are laid out.
//
// There is one builder, one record layout and one Backend: both engines
// seal their records into the checksummed segment format of segment.go
// and answer queries over those bytes with OpenSegment's backend, whose
// fixed-width values sit beside their keys so that a probe reads one
// record's cache line. Sorted, the default, keeps its segments in memory;
// Disk is the same engine under the name that tells a loader to serve
// the caller's bytes (a memory-mapped file) in place. A loaded Sorted
// index copies its blob once and serves the copy in place, so the only
// difference between the engines is whether a load aliases or copies.
// "map", the hash-table engine of earlier releases, is a deprecated
// alias for Sorted.
package storage

import (
	"errors"
	"fmt"
)

// Errors reported by builders.
var (
	// ErrKeyLen is returned when a key does not match the space's fixed
	// key length.
	ErrKeyLen = errors.New("storage: key length does not match the space")
	// ErrDuplicateKey is returned when the same key is inserted twice. A
	// builder may report the duplicate at Put or defer it to Seal.
	ErrDuplicateKey = errors.New("storage: duplicate key")
	// ErrSealed is returned by Put after Seal.
	ErrSealed = errors.New("storage: builder already sealed")
)

// Engine names a physical record layout and creates builders for it.
type Engine interface {
	// Name identifies the engine ("sorted", "disk").
	Name() string
	// NewBuilder starts a key space whose keys are exactly keyLen bytes.
	// capacityHint sizes internal allocations; zero is allowed.
	//
	// Keys longer than 8 bytes must be pseudorandom: independent uniform
	// strings, like every key the space will be probed with. A space of
	// one value width stores each such key at the width a probe needs to
	// tell it from the other keys of its directory bucket (segment
	// version 3), so a probe for a key that is not stored false-matches
	// with probability at most 2^-64, and two keys that agree on that
	// width are an ErrDuplicateKey.
	NewBuilder(keyLen, capacityHint int) Builder
}

// Builder accumulates records and seals them into an immutable Backend.
// Builders are not safe for concurrent use.
type Builder interface {
	// Put records one key→value pair, copying both slices. Keys must be
	// unique; a duplicate is reported here or at Seal.
	Put(key, value []byte) error
	// Seal freezes the records into a Backend. The builder is unusable
	// afterwards.
	Seal() (Backend, error)
}

// Backend is an immutable keyed record space. Implementations are safe
// for concurrent readers — the multi-index server relies on this to let
// every connection search shared indexes without locking.
type Backend interface {
	// Get returns the value stored under key. The returned slice aliases
	// backend-internal memory and must not be modified; it has no spare
	// capacity, so an append to it copies instead of writing over the
	// record stored after it.
	Get(key []byte) (value []byte, ok bool)
	// GetMany looks up every key of one batch: vals[i] is what Get
	// returns for keys[i], or nil where Get misses (a present empty
	// value comes back non-nil). vals must be at least as long as keys.
	// The lookups are independent of each other, so a backend may run
	// them side by side; the answers are those of one Get per key.
	GetMany(keys, vals [][]byte)
	// Len returns the number of records.
	Len() int
	// KeyLen returns the fixed key length of the space.
	KeyLen() int
	// Iterate visits every record in ascending lexicographic key order —
	// the deterministic order the wire formats serialize in — until fn
	// returns false. A segment of version 3, which stores a window of
	// each key, yields that window, in the same record order. Visited
	// slices must not be modified or retained.
	Iterate(fn func(key, value []byte) bool)
	// Resident approximates the heap bytes the backend pins for its
	// records. Backends that alias caller-owned buffers (segment views
	// over a blob or a memory-mapped file) report zero — the buffer is
	// accounted for by whoever opened it.
	Resident() int
	// Segment returns the sealed segment the backend serves, the bytes
	// Seal wrote or OpenSegment accepted, for a writer to copy out as
	// they are. It must not be modified.
	Segment() []byte
	// Layout reports where the segment's bytes go.
	Layout() Layout
}

// Layout is a segment's byte breakdown.
type Layout struct {
	KeyBytes   int // the key bytes the records store
	ValueBytes int // the values
	DirBytes   int // the radix directory
}

// GetEach is GetMany for a backend with no faster way: one Get per key,
// in order.
func GetEach(b Backend, keys, vals [][]byte) {
	for i, k := range keys {
		v, ok := b.Get(k)
		if ok && v == nil {
			v = present
		}
		vals[i] = v
	}
}

// present stands in for a found empty value that Get returned as nil,
// so GetMany's nil keeps meaning a miss.
var present = []byte{}

// Default returns the engine used when a caller passes nil: Sorted.
func Default() Engine { return Sorted{} }

// OrDefault substitutes the default engine for nil.
func OrDefault(e Engine) Engine {
	if e == nil {
		return Default()
	}
	return e
}

// Engines lists the built-in engines.
func Engines() []Engine { return []Engine{Sorted{}, Disk{}} }

// ByName returns the built-in engine registered under name.
func ByName(name string) (Engine, error) {
	if name == "map" {
		// Deprecated: "map" named the hash-table engine, which is gone.
		// It selects Sorted, whose Name reports "sorted".
		return Sorted{}, nil
	}
	for _, e := range Engines() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("storage: unknown engine %q", name)
}
