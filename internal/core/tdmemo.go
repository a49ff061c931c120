package core

import (
	"sync"
	"sync/atomic"

	"rsse/internal/prf"
)

// Trapdoor memoization. A trapdoor is a deterministic function of the
// client's keys and the queried range (up to the stag permutation, which
// is drawn once per derivation), so an owner replaying skewed traffic —
// the zipf workloads, a dashboard refreshing hot ranges — re-derives
// byte-identical token sets over and over. The memo caches whole
// trapdoors per range (and per PRF suite of the index asked, which a
// Constant scheme's tokens depend on) and replays them, skipping cover
// planning, PRF evaluation and serialization for repeated ranges.
//
// Replaying a memoized trapdoor sends the server exactly the bytes a
// fresh derivation of the same range would, modulo the stag order.
// That order reveals nothing new: stags are deterministic, so the
// server already links repeated ranges by token-set equality (the
// search-pattern leakage every scheme here admits), and a re-randomized
// permutation of an already-observed set carries no extra information.
// Server-side work per query is unchanged — only redundant owner-side
// derivation is skipped.
//
// The memo is disabled by default so that cost-accounting tests and
// leakage experiments see every derivation.

// trapdoorMemo is a bounded, concurrency-safe range → trapdoor cache,
// private to the one client whose keys derived its entries.
type trapdoorMemo struct {
	mu           sync.RWMutex
	cap          int
	m            map[memoKey]*Trapdoor
	hits, misses atomic.Uint64
}

// memoKey is what a trapdoor is a function of beyond the client's keys:
// the range, and the suite of the index it was derived for.
type memoKey struct {
	q     Range
	suite prf.Suite
}

// newTrapdoorMemo creates a memo holding up to capacity distinct
// ranges. It returns nil when capacity is not positive; a nil memo is
// valid and never caches.
func newTrapdoorMemo(capacity int) *trapdoorMemo {
	if capacity <= 0 {
		return nil
	}
	return &trapdoorMemo{cap: capacity, m: make(map[memoKey]*Trapdoor, capacity)}
}

// get returns the cached trapdoor for q under suite, if any. Nil-safe.
func (m *trapdoorMemo) get(q Range, suite prf.Suite) (*Trapdoor, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.RLock()
	t, ok := m.m[memoKey{q, suite}]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return t, ok
}

// put records q's freshly derived trapdoor, evicting an arbitrary entry
// when full. Random-ish eviction is enough: under the skewed streams
// the memo exists for, hot ranges are restored on their next occurrence
// and an evicted cold range only costs one re-derivation. The wire form
// is pre-marshaled once so remote replays skip serialization too.
func (m *trapdoorMemo) put(q Range, suite prf.Suite, t *Trapdoor) {
	if m == nil {
		return
	}
	if wire, err := t.MarshalBinary(); err == nil {
		t.wire = wire
	}
	k := memoKey{q, suite}
	m.mu.Lock()
	if _, ok := m.m[k]; !ok && len(m.m) >= m.cap {
		for old := range m.m {
			delete(m.m, old)
			break
		}
	}
	m.m[k] = t
	m.mu.Unlock()
}

// len reports the current entry count (for tests). Nil-safe.
func (m *trapdoorMemo) len() int {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

// TrapdoorMemoStats returns the client's cumulative trapdoor-memo hits
// and misses (misses count only derivations eligible for memoization;
// both stay zero unless Options.TrapdoorMemo — rsse.WithTrapdoorMemo —
// enabled the memo). Only the round-1 trapdoors of
// one-range queries (batches of one, which QueryContext and Trapdoor
// run) are memoized: a one-range plan is its trapdoor alone, so an entry
// is no larger than the trapdoor. Batches of two or more ranges and the
// position-dependent Logarithmic-SRC-i round 2 always derive fresh.
func (c *Client) TrapdoorMemoStats() (hits, misses uint64) {
	if c.tdMemo == nil {
		return 0, 0
	}
	return c.tdMemo.hits.Load(), c.tdMemo.misses.Load()
}
