package sse

import (
	"encoding/binary"
	"fmt"
	mrand "math/rand"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// TSet defaults, matching the parameters the paper reports for its
// experiments with the Cash et al. (CRYPTO'13) construction: buckets of
// S = 6000 records with a K = 1.1 space expansion factor.
const (
	DefaultBucketCapacity = 6000
	DefaultExpansion      = 1.1
	defaultMaxRetries     = 64
)

// TSet is the bucketized T-set instantiation of Cash et al. (CRYPTO'13).
// The N postings are hashed into b = ceil(K*N/S) buckets of fixed capacity
// S; every bucket is padded to capacity with random records, so the index
// occupies exactly b*S record slots regardless of the keyword
// distribution — the padding is what buys the scheme its tight leakage
// profile at a K-factor storage premium.
//
// If any bucket overflows its capacity, the build re-randomizes bucket
// assignment with a fresh salt and retries; for S in the thousands the
// per-attempt failure probability is negligible (Chernoff).
type TSet struct {
	// BucketCapacity is S, the records per bucket. Zero selects
	// DefaultBucketCapacity. Tests use small values to exercise padding
	// and overflow behaviour cheaply.
	BucketCapacity int
	// Expansion is K, the total-slots to postings ratio. Zero selects
	// DefaultExpansion. Must be > 1.
	Expansion float64
	// MaxRetries bounds the salt retries on bucket overflow. Zero selects
	// a default of 64.
	MaxRetries int
}

// Name implements Scheme.
func (TSet) Name() string { return "tset" }

func (s TSet) params() (capacity int, expansion float64, retries int, err error) {
	capacity = s.BucketCapacity
	if capacity == 0 {
		capacity = DefaultBucketCapacity
	}
	expansion = s.Expansion
	if expansion == 0 {
		expansion = DefaultExpansion
	}
	retries = s.MaxRetries
	if retries == 0 {
		retries = defaultMaxRetries
	}
	if capacity < 1 {
		return 0, 0, 0, fmt.Errorf("sse: tset bucket capacity %d < 1", capacity)
	}
	if expansion <= 1 {
		return 0, 0, 0, fmt.Errorf("sse: tset expansion %v must exceed 1", expansion)
	}
	return capacity, expansion, retries, nil
}

type tsetRecord struct {
	label [LabelSize]byte
	cell  []byte
}

// Build implements Scheme.
func (s TSet) Build(entries []Entry, width int, rnd *mrand.Rand, eng storage.Engine, suite prf.Suite) (Index, error) {
	capacity, expansion, retries, err := s.params()
	if err != nil {
		return nil, err
	}
	total, err := checkEntries(entries, width)
	if err != nil {
		return nil, err
	}
	rnd = newRand(rnd)
	h := prf.GetHasherSuite(suite, prf.Key{}) // rekeyed per entry by deriveStagKeys
	defer prf.PutHasher(h)
	numBuckets := int((expansion*float64(total) + float64(capacity) - 1) / float64(capacity))
	if numBuckets < 1 {
		numBuckets = 1
	}

	var buckets [][]tsetRecord
	salt := uint64(0)
attempt:
	for try := 0; ; try++ {
		if try == retries {
			return nil, fmt.Errorf("sse: tset bucket overflow after %d retries (capacity %d too small for %d postings in %d buckets)",
				retries, capacity, total, numBuckets)
		}
		buckets = make([][]tsetRecord, numBuckets)
		for _, e := range entries {
			keys := deriveStagKeys(suite, h, e.Stag)
			bkt := bucketKey(suite, h, e.Stag, salt)
			for i, p := range shuffled(e.Payloads, rnd) {
				b := bucketOf(suite, bkt, uint64(i), numBuckets)
				if len(buckets[b]) == capacity {
					salt++
					continue attempt
				}
				buckets[b] = append(buckets[b], tsetRecord{
					label: cellLabel(suite, keys.loc, uint64(i)),
					cell:  encryptCell(keys.enc, uint64(i), p),
				})
			}
		}
		break
	}

	// Pad every bucket to capacity with random records so all buckets are
	// indistinguishable from full ones.
	for b := range buckets {
		for len(buckets[b]) < capacity {
			var r tsetRecord
			fillRandom(r.label[:], rnd)
			r.cell = make([]byte, width)
			fillRandom(r.cell, rnd)
			buckets[b] = append(buckets[b], r)
		}
		// Hide which slots are real.
		rnd.Shuffle(len(buckets[b]), func(i, j int) {
			buckets[b][i], buckets[b][j] = buckets[b][j], buckets[b][i]
		})
	}

	idx := &tsetIndex{
		suite:      suite,
		width:      width,
		postings:   total,
		salt:       salt,
		capacity:   capacity,
		numBuckets: numBuckets,
	}
	if err := idx.buildLookup(eng, buckets); err != nil {
		return nil, err
	}
	idx.size = idx.serializedSize()
	return idx, nil
}

// buildLookup moves the bucket records into the engine-backed label→cell
// space, padding records included. The cell bytes live once, in the
// backend; bucket order is a build-time artifact searches never need.
func (x *tsetIndex) buildLookup(eng storage.Engine, buckets [][]tsetRecord) error {
	b := cellBuilder(eng, x.numBuckets*x.capacity)
	for _, bkt := range buckets {
		for _, r := range bkt {
			if err := b.Put(r.label[:], r.cell); err != nil {
				return errLabelCollision(err)
			}
		}
	}
	lookup, err := b.Seal()
	if err != nil {
		return errLabelCollision(err)
	}
	x.lookup = lookup
	return nil
}

// bucketOf maps the i-th record of a keyword to a bucket via the
// stag-derived (and salted) bucket key.
func bucketOf(suite prf.Suite, bkt prf.Key, i uint64, n int) int {
	v := evalUint64(suite, bkt, 'b', i)
	return int(binary.BigEndian.Uint64(v[:8]) % uint64(n))
}

func fillRandom(dst []byte, rnd *mrand.Rand) {
	for i := range dst {
		dst[i] = byte(rnd.Intn(256))
	}
}

type tsetIndex struct {
	suite      prf.Suite
	width      int
	postings   int
	salt       uint64
	capacity   int
	numBuckets int
	size       int
	// lookup is the engine-backed label→cell space searches probe.
	lookup storage.Backend
}

func (x *tsetIndex) Width() int    { return x.width }
func (x *tsetIndex) Postings() int { return x.postings }
func (x *tsetIndex) Size() int     { return x.size }
func (x *tsetIndex) Resident() int { return x.lookup.Resident() }

// Buckets reports the bucket count; exposed for tests and stats.
func (x *tsetIndex) Buckets() int { return x.numBuckets }

// Capacity reports the per-bucket record capacity.
func (x *tsetIndex) Capacity() int { return x.capacity }

func (x *tsetIndex) Search(stag Stag) ([][]byte, error) {
	s := getCellSearcher(x.suite, stag)
	defer putCellSearcher(s)
	var out [][]byte
	for i := uint64(0); ; i++ {
		cell, ok := x.lookup.Get(s.label(i))
		if !ok {
			return out, nil
		}
		if len(cell) != x.width {
			return nil, fmt.Errorf("sse: corrupt tset cell (%d bytes, want %d)", len(cell), x.width)
		}
		out = append(out, s.decrypt(i, cell))
	}
}

// serializedSize is the paper's Fig. 5a accounting of the index — a
// tag(1) width(4) salt(8) postings(8) buckets(8) capacity(4) header,
// then label(16) || cell(width) per slot, padding included — not the
// length of any wire encoding.
func (x *tsetIndex) serializedSize() int {
	return 1 + 4 + 8 + 8 + 8 + 4 + x.numBuckets*x.capacity*(LabelSize+x.width)
}
