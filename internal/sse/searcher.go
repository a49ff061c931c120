package sse

import (
	"crypto/aes"
	"crypto/cipher"
	"slices"
	"sync"
	"sync/atomic"

	"rsse/internal/prf"
	"rsse/internal/secenc"
	"rsse/internal/storage"
)

// The search path. Every construction searches a request's stags in one
// pass of the lockstep lanes below: up to `lanes` stags are walked side
// by side, each lane one stag's walk of labels 0, 1, … to its first
// miss (2lev's walk is its label-0 probe). A step derives the next label
// of every walking lane — under F two at a time with prf.F2 — and
// probes them all with one storage.Backend.GetMany, so the dictionary
// misses of different stags are in flight together; a lane whose walk
// ends takes the request's next stag. The lanes change only the
// interleaving across stags: each stag is probed at exactly the labels a
// walk of it alone probes, in counter order, and stops at its first
// miss.
//
// Per request a search costs one pooled lane-set checkout, and whatever
// growing the caller's data and ends to the answer takes; under suites
// 0–2, per stag whose probe hits and for which no cache entry holds the
// cell cipher, one AES key schedule. Suite 3 has none: a cell's pad
// starts with the spare half of the label output the step already
// computed (cellPad), so a hit costs what a miss does. Everything per
// cell — label derivation, dictionary probe, decryption, gathering the
// item — reuses the lanes' scratch.

// lanes is how many stag walks a search runs side by side. On
// BenchmarkSearchStags (one batch_cluster shard request, 85 stags)
// sixteen lanes took 129–154 µs a request where eight took 145–166 µs
// and one 189–221 µs, faster than eight in 4 of 4 interleaved runs on a
// 2-vCPU Xeon; on batch_cluster itself eight and sixteen measured the
// same. A lane's hashers are made on its first suite-0/1 walk, so the
// lanes a request does not reach cost a lane set nothing but their
// structs.
const lanes = 16

// cellSearcher is one lane: the allocation-free machinery of one stag's
// walk, reused for the next stag when the walk ends.
type cellSearcher struct {
	suite prf.Suite    // of h and hk, for life: lane sets are pooled per suite
	h     *prf.Hasher  // keyed to the stag's location key; suites 0 and 1 only, made by the first start
	hk    *prf.Hasher  // keyed to the stag itself by key(): derives loc, and enc on the first hit
	blk   cipher.Block // AES under the stag's cell key; nil until a probe hits (see decrypt)
	nonce [aes.BlockSize]byte
	ks    [aes.BlockSize]byte
	lab   [LabelSize]byte   // suites 0, 1: label buffer, a field so it outlives the call that returns it
	full  [prf.KeySize]byte // F suites: the last label's whole output; its spare half pads that cell under suite 3
	pad   cellPad           // suite 3
	cell  []byte            // a cell's plaintext, when not all of it is items (packed, 2lev)
	block []byte            // 2lev pointer block scratch
	slots []uint64          // 2lev block slot scratch
	out   []byte            // the walk's items, back to back, until the lane set collects them

	at  int    // the request's index of the stag this lane walks
	ctr uint64 // the counter of the walk's next probe

	// Derived-state cache bookkeeping: the entry this walk runs from,
	// its slot, whether a miss may publish, and the contiguous run of
	// first labels observed this walk — published back if it extends
	// the entry.
	stag   Stag
	slot   *atomic.Pointer[stagState]
	ent    *stagState // warm entry this walk runs from (nil on a miss)
	admit  bool       // miss path: the doorkeeper saw this stag miss before
	first  [cachedLabels][LabelSize]byte
	firstN int
}

// cachedLabels is how many of a stag's first cell labels a cache entry
// keeps. Eight labels answer a posting list of up to seven cells with
// no PRF evaluation at all, which covers most keywords; longer lists
// derive the tail per probe. Each label costs LabelSize bytes per entry.
const cachedLabels = 8

// start points the searcher at stag's walk, under the suite of the
// index being searched. Of the three stag-derived keys only loc and enc
// matter here: the salted bucket key steers build-time placement, never
// search.
//
// The per-stag state comes from the derived-state cache when present: a
// hit restores the location-key snapshot and reuses the shared AES
// block (if the entry has one), skipping the whole key schedule. A miss
// derives the location key and asks the doorkeeper whether this stag
// has missed on its slot before; only then does finish publish the
// state (see kernel.go).
//
// Suites 2 and 3 have no key schedule to amortise — a label is one
// compression of the stag — so their walks neither consult nor populate
// the cache or the doorkeeper, and are not counted in its statistics.
func (s *cellSearcher) start(stag Stag) {
	s.firstN = 0
	s.stag = stag
	if s.suite.UsesF() {
		s.pad.reset()
		return
	}
	if s.h == nil {
		// A lane's first walk: a lane set's lanes key their hashers
		// only when a request is wide enough to use them.
		s.h, s.hk = prf.NewHasherSuite(s.suite, prf.Key{}), prf.NewHasherSuite(s.suite, prf.Key{})
	}
	i := stagCacheIndex(&stag)
	s.slot = &stagCache[i]
	if e := s.slot.Load(); e != nil && e.stag == stag && e.suite == s.suite {
		stagCacheHits.Add(1)
		s.h.Restore(&e.loc)
		s.blk = e.blk
		s.ent = e
		return
	}
	stagCacheMisses.Add(1)
	fp := stagFingerprint(&stag)
	s.admit = stagSeen[i].Swap(fp) == fp
	s.key()
}

// key runs the eager half of the stag key schedule: the location key
// and rekeying the label hasher to it. The cell key waits for a hit.
func (s *cellSearcher) key() {
	s.hk.SetKey(prf.Key(s.stag))
	s.h.SetKey(s.hk.Derive("sse/loc"))
}

// cellCipher returns the AES block under the stag's cell key, deriving
// sse/enc and the key schedule on first use: a walk whose first probe
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

// finish ends the walk. It publishes the walk's derived state — location
// key, the labels it evaluated, the cell cipher if a probe hit — so the
// next occurrence of the same stag derives nothing. A miss publishes
// only at second sight; a warm walk republishes only when it extended
// the entry. Entries are immutable; a concurrent walk of the same stag
// may race the store, and either entry is correct (last writer wins).
func (s *cellSearcher) finish() {
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
	s.out = s.out[:0]
}

// label computes the i-th cell label under the stag's location key.
// The returned slice is valid until the next label call.
//
// Suites 2 and 3 label straight from the stag: F(stag,'l',i), whose
// whole output stays in s.full. Otherwise a warm entry answers its first
// labN labels from the cache; every other label costs exactly one PRF
// evaluation, made when it is probed, so a walk of an L-cell list
// evaluates at most L+1 labels. Walks probe consecutive i from zero,
// which is what makes the run of first labels recorded for publication
// contiguous.
func (s *cellSearcher) label(i uint64) []byte {
	if s.suite.UsesF() {
		s.full = prf.F(prf.Key(s.stag), 'l', i)
		return s.full[:LabelSize]
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

// decrypt appends to dst the plaintext of the cell the walk just found
// at label ctr, cell number ctr: under suite 3 by XOR with its pad,
// which starts with the spare half of s.full, that label's output;
// otherwise with secenc.XORKeyStreamBlock from
// secenc.NonceFromUint64(ctr), on the searcher's cached cell cipher and
// scratch.
func (s *cellSearcher) decrypt(dst []byte, ctr uint64, src []byte) []byte {
	return s.decryptCell(dst, ctr, src, s.full[LabelSize:])
}

// decryptCell appends to dst the plaintext of cell number n of the
// stag, whose suite-3 pad starts with spare: nil for a cell without a
// label of its own (2lev's array blocks), whose whole pad comes from
// k_cell.
func (s *cellSearcher) decryptCell(dst []byte, n uint64, src, spare []byte) []byte {
	dst = slices.Grow(dst, len(src))
	plain := dst[len(dst) : len(dst)+len(src)]
	if s.suite == prf.SuiteBlockPad {
		s.pad.xor(&s.stag, n, spare, plain, src)
	} else {
		s.nonce = secenc.NonceFromUint64(n)
		secenc.XORKeyStreamBlock(s.cellCipher(), &s.nonce, &s.ks, plain, src)
	}
	return dst[:len(dst)+len(src)]
}

// cellReader is a construction's half of a search: what a walk does with
// the cells it finds.
type cellReader interface {
	// readCell reads the cell a walk found at counter ctr of s's stag,
	// appending its items to s.out, and reports whether the walk goes on
	// to probe counter ctr+1.
	readCell(s *cellSearcher, ctr uint64, cell []byte) (more bool, err error)
}

// laneSet is one search's lanes and the scratch that collects their
// walks' items in stag order. Lane sets are pooled per suite.
type laneSet struct {
	suite prf.Suite
	s     [lanes]cellSearcher
	act   [lanes]*cellSearcher // the n walking lanes, in step order
	n     int
	keys  [lanes][]byte // this step's labels, act order
	vals  [lanes][]byte // their cells, nil for a miss
	log   []byte        // ended walks' items, in the order the walks ended
	spans []span        // per stag of the request: its items' bytes in log
}

// span is a half-open byte range of laneSet.log.
type span struct{ lo, hi int }

var laneSetPools [prf.NumSuites]sync.Pool

func getLaneSet(suite prf.Suite) *laneSet {
	ls, ok := laneSetPools[suite].Get().(*laneSet)
	if !ok {
		ls = &laneSet{suite: suite}
		for i := range ls.s {
			ls.s[i].suite = suite
		}
	}
	return ls
}

// putLaneSet ends any walk an error cut short and pools ls.
func putLaneSet(ls *laneSet) {
	for _, s := range ls.act[:ls.n] {
		s.finish()
	}
	ls.n = 0
	ls.log = ls.log[:0]
	ls.spans = ls.spans[:0]
	laneSetPools[ls.suite].Put(ls)
}

// search appends to data the width-byte items stored under each of
// stags, in stag order, read from cells by r under suite, and to ends
// one entry per stag: the item count of data after that stag's items
// (see Index.Search).
func search(suite prf.Suite, cells storage.Backend, r cellReader, width int, stags []Stag, data []byte, ends []int) ([]byte, []int, error) {
	if len(stags) == 0 {
		return data, ends, nil
	}
	ls := getLaneSet(suite)
	defer putLaneSet(ls)
	if err := ls.walk(cells, r, stags); err != nil {
		return nil, nil, err
	}
	data, ends = ls.gather(width, data, ends)
	return data, ends, nil
}

// walk runs every stag's walk to its end, lanes at a time.
func (ls *laneSet) walk(cells storage.Backend, r cellReader, stags []Stag) error {
	ls.spans = slices.Grow(ls.spans[:0], len(stags))[:len(stags)]
	next := 0
	for ; ls.n < lanes && next < len(stags); next++ {
		s := &ls.s[ls.n]
		s.at, s.ctr = next, 0
		s.start(stags[next])
		ls.act[ls.n] = s
		ls.n++
	}
	for ls.n > 0 {
		ls.label()
		cells.GetMany(ls.keys[:ls.n], ls.vals[:ls.n])
		for j := 0; j < ls.n; {
			s, more := ls.act[j], false
			if cell := ls.vals[j]; cell != nil {
				var err error
				if more, err = r.readCell(s, s.ctr, cell); err != nil {
					return err
				}
			}
			if more {
				s.ctr++
				j++
				continue
			}
			ls.spans[s.at] = span{len(ls.log), len(ls.log) + len(s.out)}
			ls.log = append(ls.log, s.out...)
			s.finish()
			if next < len(stags) {
				s.at, s.ctr = next, 0
				s.start(stags[next])
				next++
				j++
				continue
			}
			// The last walking lane takes this one's place, its cell not
			// yet read.
			ls.n--
			ls.act[j], ls.vals[j] = ls.act[ls.n], ls.vals[ls.n]
		}
	}
	return nil
}

// label derives the next label of every walking lane into keys: under
// F two lanes per prf.F2, each output into its lane's full, otherwise
// through each lane's label and so the derived-state cache.
func (ls *laneSet) label() {
	act := ls.act[:ls.n]
	if !ls.suite.UsesF() {
		for j, s := range act {
			ls.keys[j] = s.label(s.ctr)
		}
		return
	}
	j := 0
	for ; j+1 < len(act); j += 2 {
		a, b := act[j], act[j+1]
		prf.F2(&a.full, &b.full, (*prf.Key)(&a.stag), 'l', a.ctr, (*prf.Key)(&b.stag), 'l', b.ctr)
	}
	if j < len(act) {
		act[j].label(act[j].ctr)
	}
	for j, s := range act {
		ls.keys[j] = s.full[:LabelSize]
	}
}

// gather copies each stag's items to data, in stag order, and appends
// to ends each stag's end, counted in width-byte items.
func (ls *laneSet) gather(width int, data []byte, ends []int) ([]byte, []int) {
	data = slices.Grow(data, len(ls.log))
	ends = slices.Grow(ends, len(ls.spans))
	for _, sp := range ls.spans {
		data = append(data, ls.log[sp.lo:sp.hi]...)
		ends = append(ends, len(data)/width)
	}
	return data, ends
}
