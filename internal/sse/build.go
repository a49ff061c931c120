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
//     encrypted in place — on sealEach's workers, one stag at a time.
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
// long: its j-th cell is encrypted under counter j and stored at its
// j-th label. Basic and Packed are such dictionaries.
func sealDictionary(entries []Entry, off []int, cells []byte, cellLen int, eng storage.Engine, suite prf.Suite) (storage.Backend, error) {
	n := off[len(entries)]
	labels := make([][LabelSize]byte, n)
	sealEach(suite, len(entries), func(sl *stagSealer, e int) {
		lo, hi := off[e], off[e+1]
		sl.useCellKey(sl.key(entries[e].Stag))
		sl.labels(labels[lo:hi])
		for j := lo; j < hi; j++ {
			sl.seal(uint64(j-lo), cells[j*cellLen:(j+1)*cellLen])
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

// stagSealer derives a stag's build-side values: its cell labels, TSet's
// bucket indexes and its cell ciphertexts. key runs the stag's key
// schedule once; every label, bucket index and cell after it reuses the
// keyed hashers and one AES key schedule.
type stagSealer struct {
	suite   prf.Suite
	stag    Stag
	hk      *prf.Hasher // suites 0, 1: keyed to the stag
	hl      *prf.Hasher // suites 0, 1: keyed to the stag's location key
	hb      *prf.Hasher // suites 0, 1: keyed to the stag's salted bucket key
	blk     cipher.Block
	ctr, ks [aes.BlockSize]byte
}

func newStagSealer(suite prf.Suite) *stagSealer {
	s := &stagSealer{suite: suite}
	if suite != prf.SuiteBlock {
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

// key points s at stag and returns the stag's cell key. Under suites 0
// and 1 it keys the label hasher to the stag's location key and leaves
// hk keyed to the stag for buckets.
func (s *stagSealer) key(stag Stag) secenc.Key {
	s.stag = stag
	keys := deriveStagKeys(s.suite, s.hk, stag)
	if s.suite != prf.SuiteBlock {
		s.hl.SetKey(keys.loc)
	}
	return keys.enc
}

// labels sets dst[i] to the stag's i-th cell label: the PRF under its
// location key — under suite 2 F(stag,'l',i) — truncated to LabelSize:
// the labels search probes.
func (s *stagSealer) labels(dst [][LabelSize]byte) {
	s.stream(s.hl, prf.Key(s.stag), 'l', len(dst), func(i int, v [prf.KeySize]byte) {
		copy(dst[i][:], v[:LabelSize])
	})
}

// buckets sets dst[i] to the bucket of the stag's i-th TSet record
// among n under salt: the PRF under the salted bucket key, its first
// eight bytes mod n.
func (s *stagSealer) buckets(salt uint64, n int, dst []int) {
	bkt := bucketKey(s.suite, s.hk, s.stag, salt)
	if s.suite != prf.SuiteBlock {
		s.hb.SetKey(bkt)
	}
	s.stream(s.hb, bkt, 'b', len(dst), func(i int, v [prf.KeySize]byte) {
		dst[i] = int(binary.BigEndian.Uint64(v[:8]) % uint64(n))
	})
}

// stream calls emit(i, PRF(i)) for i in [0, n): under suites 0 and 1 the
// evaluation of h, keyed for one purpose, at BE64(i); under suite 2
// F(k, tag, i), two compressions at a time.
func (s *stagSealer) stream(h *prf.Hasher, k prf.Key, tag byte, n int, emit func(i int, v [prf.KeySize]byte)) {
	if s.suite != prf.SuiteBlock {
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

// useCellKey schedules AES under enc, the stag's cell key: once per
// stag, for all of its cells.
func (s *stagSealer) useCellKey(enc secenc.Key) { s.blk = secenc.NewBlock(enc) }

// seal encrypts cell in place with AES-CTR under the cell key and the
// nonce secenc.NonceFromUint64(ctr); ctr is unique per (stag, cell) by
// construction, and search decrypts with the same nonce.
func (s *stagSealer) seal(ctr uint64, cell []byte) {
	s.ctr = secenc.NonceFromUint64(ctr)
	secenc.XORKeyStreamBlock(s.blk, &s.ctr, &s.ks, cell, cell)
}

// postingOffsets returns the prefix sums of f over the entries: entry
// i's cells are [off[i], off[i+1]) of a construction's backing arrays.
func postingOffsets(entries []Entry, f func(postings int) int) []int {
	off := make([]int, len(entries)+1)
	for i, e := range entries {
		off[i+1] = off[i] + f(len(e.Payloads))
	}
	return off
}

// shuffleInto sets dst to a shuffled copy of payloads and returns it;
// dst must have room for them. Posting lists are permuted so that
// storage order leaks nothing about insertion or domain order (required
// by the BuildIndex algorithms of Sections 6.1–6.3).
func shuffleInto(dst, payloads [][]byte, rnd *mrand.Rand) [][]byte {
	dst = dst[:len(payloads)]
	copy(dst, payloads)
	rnd.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	return dst
}

// longestList is the length of the longest posting list, which sizes
// the plan phase's shuffle scratch.
func longestList(entries []Entry) int {
	n := 0
	for _, e := range entries {
		n = max(n, len(e.Payloads))
	}
	return n
}
