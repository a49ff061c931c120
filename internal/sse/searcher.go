package sse

import (
	"crypto/aes"
	"crypto/cipher"
	"sync"
	"sync/atomic"

	"rsse/internal/prf"
	"rsse/internal/secenc"
)

// cellSearcher is the shared allocation-free machinery of the four
// constructions' Search paths. Per search it costs one pooled checkout
// and — only if a probe hits — one AES key schedule, arena chunks for
// the returned plaintexts and the one right-sized result slice;
// everything per *cell* — label derivation, dictionary probe, CTR
// decryption, gathering the item — reuses the searcher's scratch.
//
// The arena hands out disjoint regions of append-only chunks, so the
// returned payload slices stay valid after the searcher goes back to
// the pool: a reused searcher keeps carving the same chunk forward and
// never re-slices memory it already handed out.
type cellSearcher struct {
	suite prf.Suite    // of h and hk, for life: searchers are pooled per suite
	h     *prf.Hasher  // keyed to the stag's location key
	hk    *prf.Hasher  // keyed to the stag itself by key(): derives loc, and enc on the first hit
	blk   cipher.Block // AES under the stag's cell key; nil until a probe hits (see decrypt)
	nonce [aes.BlockSize]byte
	ks    [aes.BlockSize]byte
	lab   [LabelSize]byte // label buffer: a field so Get's interface call cannot force a heap escape
	chunk []byte          // free region of the current arena chunk
	slots []uint64        // twolevel pointer scratch
	out   [][]byte        // the search's items, gathered before result copies them out

	// Derived-state cache bookkeeping: the entry this search runs from,
	// its slot, whether a miss may publish, and the contiguous run of
	// first labels observed this search — published back if it extends
	// the entry.
	stag   Stag
	slot   *atomic.Pointer[stagState]
	ent    *stagState // warm entry this search runs from (nil on a miss)
	admit  bool       // miss path: the doorkeeper saw this stag miss before
	first  [cachedLabels][LabelSize]byte
	firstN int
}

// cachedLabels is how many of a stag's first cell labels a cache entry
// keeps. Eight labels answer a posting list of up to seven cells with
// no PRF evaluation at all, which covers most keywords; longer lists
// derive the tail per probe. Each label costs LabelSize bytes per entry.
const cachedLabels = 8

// cellSearcherPools holds one pool per PRF suite: a searcher's two
// hashers are of one hash for life.
var cellSearcherPools [prf.NumSuites]sync.Pool

// getCellSearcher checks out a searcher keyed for stag under suite — the
// suite of the index being searched. Of the three stag-derived keys only
// loc and enc matter here: the salted bucket key steers build-time
// placement, never search.
//
// The per-stag state comes from the derived-state cache when present: a
// hit restores the location-key snapshot and reuses the shared AES
// block (if the entry has one), skipping the whole key schedule. A miss
// derives the location key and asks the doorkeeper whether this stag
// has missed on its slot before; only then does putCellSearcher publish
// the state (see kernel.go).
//
// Suite 2 has no key schedule to amortise — a label is one compression
// of the stag — so its searches neither consult nor populate the cache
// or the doorkeeper, and are not counted in its statistics.
func getCellSearcher(suite prf.Suite, stag Stag) *cellSearcher {
	s, ok := cellSearcherPools[suite].Get().(*cellSearcher)
	if !ok {
		s = &cellSearcher{suite: suite, h: prf.NewHasherSuite(suite, prf.Key{}), hk: prf.NewHasherSuite(suite, prf.Key{})}
	}
	s.firstN = 0
	s.stag = stag
	if suite == prf.SuiteBlock {
		return s
	}
	i := stagCacheIndex(&stag)
	s.slot = &stagCache[i]
	if e := s.slot.Load(); e != nil && e.stag == stag && e.suite == suite {
		stagCacheHits.Add(1)
		s.h.Restore(&e.loc)
		s.blk = e.blk
		s.ent = e
		return s
	}
	stagCacheMisses.Add(1)
	fp := stagFingerprint(&stag)
	s.admit = stagSeen[i].Swap(fp) == fp
	s.key()
	return s
}

// key runs the eager half of the stag key schedule: the location key
// and rekeying the label hasher to it. The cell key waits for a hit.
func (s *cellSearcher) key() {
	s.hk.SetKey(prf.Key(s.stag))
	s.h.SetKey(s.hk.Derive("sse/loc"))
}

// cellCipher returns the AES block under the stag's cell key, deriving
// sse/enc and the key schedule on first use: a search whose first probe
// misses never gets here.
func (s *cellSearcher) cellCipher() cipher.Block {
	if s.blk == nil {
		if s.ent != nil {
			// A warm entry skipped key(): hk is not keyed to this stag yet.
			s.hk.SetKey(prf.Key(s.stag))
		}
		enc := cellKey(s.suite, s.hk, s.stag)
		var err error
		if s.blk, err = aes.NewCipher(enc[:]); err != nil {
			panic("sse: " + err.Error())
		}
	}
	return s.blk
}

func putCellSearcher(s *cellSearcher) {
	// Publish the search's derived state — location key, the labels it
	// evaluated, the cell cipher if a probe hit — so the next occurrence
	// of the same stag derives nothing. A miss publishes only at second
	// sight; a warm search republishes only when it extended the entry.
	// Entries are immutable; a concurrent search of the same stag may
	// race the store, and either entry is correct (last writer wins).
	if e := s.ent; e != nil {
		grew, keyed := s.firstN > e.labN, e.blk == nil && s.blk != nil
		if grew || keyed {
			ext := *e
			ext.blk = s.blk
			if grew {
				ext.labN, ext.labs = s.firstN, s.first
			}
			s.slot.Store(&ext)
		}
	} else if s.admit {
		// h still holds the location key's states: Eval only reads them.
		s.slot.Store(&stagState{stag: s.stag, suite: s.suite, loc: s.h.Snapshot(), blk: s.blk, labN: s.firstN, labs: s.first})
		stagCacheAdmissions.Add(1)
	}
	s.ent = nil
	s.slot = nil
	s.admit = false
	s.blk = nil
	clear(s.out) // a pooled searcher pins no caller's items
	s.out = s.out[:0]
	cellSearcherPools[s.suite].Put(s)
}

// result returns the items the search gathered in s.out as one
// right-sized slice: nil for none, as a search that finds nothing
// answers.
func (s *cellSearcher) result() [][]byte {
	if len(s.out) == 0 {
		return nil
	}
	return append(make([][]byte, 0, len(s.out)), s.out...)
}

// label computes the i-th cell label under the stag's location key.
// The returned slice is valid until the next label call.
//
// Suite 2 labels straight from the stag: F(stag,'l',i).
// Otherwise a warm entry answers its first labN labels from the cache; every
// other label costs exactly one PRF evaluation, made when it is probed,
// so a search of an L-cell list evaluates at most L+1 labels. Search
// loops probe consecutive i from zero, which is what makes the run of
// first labels recorded for publication contiguous.
func (s *cellSearcher) label(i uint64) []byte {
	if s.suite == prf.SuiteBlock {
		full := prf.F(prf.Key(s.stag), 'l', i)
		copy(s.lab[:], full[:LabelSize])
		return s.lab[:]
	}
	if e := s.ent; e != nil && i < uint64(e.labN) {
		s.lab = e.labs[i]
	} else {
		full := s.h.EvalUint64(i)
		copy(s.lab[:], full[:LabelSize])
	}
	if i < cachedLabels && int(i) == s.firstN {
		s.first[i] = s.lab
		s.firstN++
	}
	return s.lab[:]
}

// alloc carves an n-byte region out of the arena.
func (s *cellSearcher) alloc(n int) []byte {
	if len(s.chunk) < n {
		s.chunk = make([]byte, max(n, 4096))
	}
	p := s.chunk[:n:n]
	s.chunk = s.chunk[n:]
	return p
}

// decrypt CTR-decrypts the cell encrypted under counter ctr into a
// fresh arena region: secenc.XORKeyStreamBlock from
// secenc.NonceFromUint64(ctr), on the searcher's cached cell cipher and
// scratch.
func (s *cellSearcher) decrypt(ctr uint64, src []byte) []byte {
	dst := s.alloc(len(src))
	s.nonce = secenc.NonceFromUint64(ctr)
	secenc.XORKeyStreamBlock(s.cellCipher(), &s.nonce, &s.ks, dst, src)
	return dst
}
