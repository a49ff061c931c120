package sse

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	mrand "math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"rsse/internal/prf"
	"rsse/internal/secenc"
	"rsse/internal/storage"
)

// Every construction builds in three phases:
//
//  1. Plan (serial): every draw from the build's RNG, in one fixed order —
//     posting-list shuffles, padding bytes, TwoLevel's slot permutation,
//     TSet's padding records and bucket shuffles — with the plaintext
//     cells laid out in one backing array.
//  2. Seal (parallel): everything derived from a stag — its working keys,
//     cell labels, TSet bucket indexes, and the cell ciphertexts, each
//     encrypted in place (under suite 3 padded from F, with the spare
//     halves of the label outputs) — on sealEach's workers, one stag at
//     a time.
//  3. Place (serial): the builder Puts, in the order the plan fixed, then
//     Seal.
//
// A stag's derivations are functions of the stag and the cell number
// alone, and the seal phase draws nothing from the RNG, so the index is
// the same bytes for every worker count and every schedule.

// buildWorkers, when positive, is the seal phase's worker count; zero
// means runtime.GOMAXPROCS(0). Only tests set it.
var buildWorkers int

// sealChunk is how many consecutive entries a worker claims at a time:
// enough to amortise the claim, few enough that one long posting list
// does not leave the other workers idle.
const sealChunk = 32

// sealEach calls fn(s, i) for every i in [0, n) on the seal phase's
// workers, each with its own stagSealer of suite. Calls for distinct i
// run concurrently, so fn must write only what belongs to entry i. A
// panic in a worker is raised again on the caller's goroutine, as the
// serial build would raise it: a writable server builds while it
// serves, and contains a handler's panic there.
func sealEach(suite prf.Suite, n int, fn func(s *stagSealer, i int)) {
	workers := buildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+sealChunk-1)/sealChunk)
	if workers <= 1 {
		s := newStagSealer(suite)
		defer s.release()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make(chan any, workers) // one send per worker at most
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			s := newStagSealer(suite)
			defer s.release()
			for {
				lo := int(next.Add(sealChunk)) - sealChunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+sealChunk, n); i++ {
					fn(s, i)
				}
			}
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// sealDictionary seals and places a dictionary in which keyword e owns
// the plaintext cells [off[e], off[e+1]) of cells, each cellLen bytes
// long: its j-th cell is encrypted as cell number j and stored at its
// j-th label. Basic and Packed are such dictionaries.
func sealDictionary(entries []Entry, off []int, cells []byte, cellLen int, eng storage.Engine, suite prf.Suite) (storage.Backend, error) {
	n := off[len(entries)]
	labels, spares := make([][LabelSize]byte, n), labelSpares(suite, n)
	sealEach(suite, len(entries), func(sl *stagSealer, e int) {
		lo, hi := off[e], off[e+1]
		sl.useCellKey(entries[e].Stag, sl.key(entries[e].Stag))
		sl.labels(labels[lo:hi], spares.of(lo, hi))
		for j := lo; j < hi; j++ {
			sl.seal(uint64(j-lo), cells[j*cellLen:(j+1)*cellLen], spares.at(j))
		}
	})
	b := cellBuilder(eng, n)
	for j := range labels {
		if err := b.Put(labels[j][:], cells[j*cellLen:(j+1)*cellLen]); err != nil {
			return nil, errLabelCollision(err)
		}
	}
	sealed, err := b.Seal()
	if err != nil {
		return nil, errLabelCollision(err)
	}
	return sealed, nil
}

// spares holds, under suite 3, the spare half of each cell label's PRF
// output — the first bytes of that cell's pad (cellPad) — index for
// index beside a build's label array; it is nil under every other suite.
type spares [][LabelSize]byte

func labelSpares(suite prf.Suite, n int) spares {
	if suite != prf.SuiteBlockPad {
		return nil
	}
	return make(spares, n)
}

// of is the window [lo, hi), or nil.
func (sp spares) of(lo, hi int) spares {
	if sp == nil {
		return nil
	}
	return sp[lo:hi]
}

// at is cell i's spare half, or nil.
func (sp spares) at(i int) []byte {
	if sp == nil {
		return nil
	}
	return sp[i][:]
}

// stagSealer derives a stag's build-side values: its cell labels, TSet's
// bucket indexes and its cell ciphertexts. key runs the stag's key
// schedule once; every label, bucket index and cell after it reuses the
// keyed hashers and one AES key schedule, or under suite 3 the stag's
// cellPad.
type stagSealer struct {
	suite   prf.Suite
	stag    Stag
	hk      *prf.Hasher // suites 0, 1: keyed to the stag
	hl      *prf.Hasher // suites 0, 1: keyed to the stag's location key
	hb      *prf.Hasher // suites 0, 1: keyed to the stag's salted bucket key
	blk     cipher.Block
	ctr, ks [aes.BlockSize]byte
	pad     cellPad // suite 3
}

func newStagSealer(suite prf.Suite) *stagSealer {
	s := &stagSealer{suite: suite}
	if !suite.UsesF() {
		s.hk = prf.GetHasherSuite(suite, prf.Key{})
		s.hl = prf.GetHasherSuite(suite, prf.Key{})
		s.hb = prf.GetHasherSuite(suite, prf.Key{})
	}
	return s
}

func (s *stagSealer) release() {
	if s.hk != nil {
		prf.PutHasher(s.hk)
		prf.PutHasher(s.hl)
		prf.PutHasher(s.hb)
	}
}

// key points s at stag and returns the stag's AES cell key (zero under
// suite 3). Under suites 0 and 1 it keys the label hasher to the stag's
// location key and leaves hk keyed to the stag for buckets.
func (s *stagSealer) key(stag Stag) secenc.Key {
	s.stag = stag
	keys := deriveStagKeys(s.suite, s.hk, stag)
	if !s.suite.UsesF() {
		s.hl.SetKey(keys.loc)
	}
	return keys.enc
}

// labels sets dst[i] to the stag's i-th cell label: the PRF under its
// location key — under F F(stag,'l',i) — truncated to LabelSize: the
// labels search probes. spare, non-nil under suite 3 only, gets each
// output's other half.
func (s *stagSealer) labels(dst [][LabelSize]byte, spare spares) {
	s.stream(s.hl, prf.Key(s.stag), 'l', len(dst), func(i int, v [prf.KeySize]byte) {
		copy(dst[i][:], v[:LabelSize])
		if spare != nil {
			copy(spare[i][:], v[LabelSize:])
		}
	})
}

// buckets sets dst[i] to the bucket of the stag's i-th TSet record
// among n under salt: the PRF under the salted bucket key, its first
// eight bytes mod n.
func (s *stagSealer) buckets(salt uint64, n int, dst []int) {
	bkt := bucketKey(s.suite, s.hk, s.stag, salt)
	if !s.suite.UsesF() {
		s.hb.SetKey(bkt)
	}
	s.stream(s.hb, bkt, 'b', len(dst), func(i int, v [prf.KeySize]byte) {
		dst[i] = int(binary.BigEndian.Uint64(v[:8]) % uint64(n))
	})
}

// stream calls emit(i, PRF(i)) for i in [0, n): under suites 0 and 1 the
// evaluation of h, keyed for one purpose, at BE64(i); under F F(k, tag,
// i), two compressions at a time.
func (s *stagSealer) stream(h *prf.Hasher, k prf.Key, tag byte, n int, emit func(i int, v [prf.KeySize]byte)) {
	if !s.suite.UsesF() {
		for i := range n {
			emit(i, h.EvalUint64(uint64(i)))
		}
		return
	}
	var v0, v1 [prf.KeySize]byte
	i := 0
	for ; i+1 < n; i += 2 {
		prf.F2(&v0, &v1, &k, tag, uint64(i), &k, tag, uint64(i+1))
		emit(i, v0)
		emit(i+1, v1)
	}
	if i < n {
		emit(i, prf.F(k, tag, uint64(i)))
	}
}

// useCellKey points seal at stag's cells: under suites 0–2 one AES key
// schedule under enc, the stag's cell key, for all of its cells; under
// suite 3 nothing, as k_cell waits for the first pad byte a label's
// spare half does not cover.
func (s *stagSealer) useCellKey(stag Stag, enc secenc.Key) {
	if s.suite == prf.SuiteBlockPad {
		s.stag = stag
		s.pad.reset()
		return
	}
	s.blk = secenc.NewBlock(enc)
}

// seal encrypts cell number n of the stag in place: with AES-CTR under
// the cell key and the nonce secenc.NonceFromUint64(n), or under suite 3
// with the cell's pad, of which spare is the first half-label (nil for
// a cell without a label). n is unique per (stag, cell) by
// construction, and search decrypts with the same number.
func (s *stagSealer) seal(n uint64, cell, spare []byte) {
	if s.suite == prf.SuiteBlockPad {
		s.pad.xor(&s.stag, n, spare, cell, cell)
		return
	}
	s.ctr = secenc.NonceFromUint64(n)
	secenc.XORKeyStreamBlock(s.blk, &s.ctr, &s.ks, cell, cell)
}

// postingOffsets returns the prefix sums of f over the entries' payload
// counts: entry i's cells are [off[i], off[i+1]) of a construction's
// backing arrays.
func postingOffsets(entries []Entry, width int, f func(postings int) int) []int {
	off := make([]int, len(entries)+1)
	for i, e := range entries {
		off[i+1] = off[i] + f(len(e.Data)/width)
	}
	return off
}

// shuffleRun copies the width-byte payloads of src to dst and permutes
// them there with rnd.Shuffle. Posting lists are permuted so that
// storage order leaks nothing about insertion or domain order (required
// by the BuildIndex algorithms of Sections 6.1–6.3).
func shuffleRun(dst, src []byte, width int, rnd *mrand.Rand) {
	copy(dst, src)
	rnd.Shuffle(len(src)/width, func(i, j int) {
		a, b := dst[i*width:(i+1)*width], dst[j*width:(j+1)*width]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
	})
}
