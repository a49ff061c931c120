package sse

import (
	"crypto/cipher"
	"encoding/binary"
	"sync/atomic"

	"rsse/internal/prf"
)

// The search path keeps a derived-state cache: the per-stag search
// state is a pure deterministic function of the stag the server already
// holds, so a stag that comes back can restore it at memcpy cost instead
// of re-deriving it. What the cache must not do is charge the stags that
// never come back for that service, because they are the common miss:
// the Constant schemes forbid intersecting queries, so every one of the
// R leaf stags a GGM token expands to is by the scheme's own rule looked
// up once and never again, and most tokens of a query over an LSM store
// address epochs in which their keyword has no postings. (Where the
// derivation is itself one compression — PRF suites 2 and 3 — there is
// nothing to amortise and cellSearcher.start bypasses all of this.)
//
// Admission — second sight. A fixed fingerprint array beside the cache
// (the doorkeeper) remembers, per slot, the last stag that missed there.
// A miss publishes an entry only when the doorkeeper already holds the
// missing stag's fingerprint, i.e. from the stag's second occurrence on.
// A stag seen once therefore costs no allocation and evicts nothing; a
// hot stag pays one extra derivation and is served from the cache from
// its third lookup. A fingerprint collision (2^-31 per pair of stags
// sharing a slot) only admits an entry one sight early.
//
// What an entry holds. The suite the state was derived under, the
// location-keyed PRF snapshot (the two chaining values of the keyed
// HMAC, 64 bytes each at most) and the stag's first cell labels (16
// bytes each, as probed), always; the AES block cipher only once a
// search of that stag has hit a cell. The cell key is lazy on every
// path: key() derives sse/loc alone, and sse/enc plus the AES key
// schedule are derived by the first decrypt. An empty posting list —
// nearly every Constant leaf, most LSM epoch tokens — never pays for
// them, and its entry carries no cipher.Block.
//
// Leakage: the cache and the doorkeeper are keyed only by stags the
// server observes anyway (and the index's suite, which is public), and a hit, an admitted miss and an unadmitted
// miss produce exactly the same probes, in the same order. When the
// cell key is derived depends only on whether a probe hit, which the
// server sees directly. Timing reveals stag recurrence and list
// emptiness, both already in the server's view; no new information is
// created.

// stagState is one immutable cache entry: what a search derives from a
// stag. Entries are shared read-only across goroutines; replacement
// publishes a fresh entry via atomic pointer swap.
//
// Beyond the location key, an entry carries the stag's first labN cell
// labels — also pure PRF-of-stag values. Most posting lists fit in
// cachedLabels, so a repeated token's whole label stream comes out of
// the cache and costs no HMAC at all; a search that derives labels (or
// the cell key) the entry lacks republishes an extended entry on its
// way out.
//
// An entry is sized to what it holds — 320 bytes — because admissions
// accumulate: a workload that admits 1% of its lookups grows the cache
// with the queries it completes, so entry bytes are resident-set bytes.
type stagState struct {
	stag  Stag
	suite prf.Suite    // the state below is the stag's under this suite only
	loc   prf.Snapshot // location-keyed hasher state
	blk   cipher.Block // AES block under the stag's cell key; nil until a probe has hit
	labN  int
	labs  [cachedLabels][LabelSize]byte // cell labels 0..labN-1
}

// stagCacheSize bounds the direct-mapped cache. 128k entries hold the
// union working set of a many-client zipf stream (a 16-bit domain under
// Logarithmic-BRC has ~128k distinct dyadic keywords, and direct
// mapping needs headroom over the populated set to keep collisions
// rare); entries are allocated on admission, so an idle server pays only
// the pointer array (1 MiB) and the doorkeeper (512 KiB). Collisions
// just re-derive: the entry is a pure function of the stag, so a stale
// or evicted entry can never produce a wrong result, only a miss.
const stagCacheSize = 1 << 17

var (
	stagCache [stagCacheSize]atomic.Pointer[stagState]
	// stagSeen is the doorkeeper: per slot, the fingerprint of the last
	// stag that missed there (zero: none yet).
	stagSeen [stagCacheSize]atomic.Uint32

	stagCacheHits, stagCacheMisses, stagCacheAdmissions atomic.Uint64
)

// stagCacheIndex maps a stag to its slot. Stags are PRF outputs: any 8
// bytes are already a uniform index.
func stagCacheIndex(stag *Stag) uint64 {
	return binary.LittleEndian.Uint64(stag[:8]) & (stagCacheSize - 1)
}

// stagFingerprint is the doorkeeper's view of a stag: 31 bits the slot
// index does not use, with the top bit set so no stag maps to the empty
// value.
func stagFingerprint(stag *Stag) uint32 {
	return binary.LittleEndian.Uint32(stag[8:12]) | 1<<31
}

// KernelCacheStats returns the cumulative count of stag lookups the
// derived-state cache answered (hits) and did not (misses), for the ops
// endpoint and bench reports.
func KernelCacheStats() (hits, misses uint64) {
	return stagCacheHits.Load(), stagCacheMisses.Load()
}

// KernelCacheAdmissions returns the cumulative number of misses that
// published a new cache entry (the stag had missed on its slot before).
func KernelCacheAdmissions() uint64 { return stagCacheAdmissions.Load() }

// ResetKernelCache drops every cached entry, clears the doorkeeper and
// zeroes the counters — for tests and benchmark phases that must not
// inherit a warm cache.
func ResetKernelCache() {
	for i := range stagCache {
		stagCache[i].Store(nil)
		stagSeen[i].Store(0)
	}
	stagCacheHits.Store(0)
	stagCacheMisses.Store(0)
	stagCacheAdmissions.Store(0)
}
