package sse

import (
	"fmt"
	mrand "math/rand"

	"rsse/internal/prf"
	"rsse/internal/secenc"
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

// Build implements Scheme.
//
// Bucket indexes depend on the stag, the salt and the record number,
// never on the shuffle, so the seal phase derives them (with the labels
// and the cell keys) before the plan phase shuffles. The plan then
// places records entry by entry, shuffling each list into its cells as
// it goes, and stops at the first full bucket: that attempt has drawn
// exactly the shuffles of the entries up to the overflowing one. The
// salt goes up, the bucket indexes are derived again, and placement
// restarts from the first entry. Cells are encrypted once the final
// shuffle is known.
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
	numBuckets := int((expansion*float64(total) + float64(capacity) - 1) / float64(capacity))
	if numBuckets < 1 {
		numBuckets = 1
	}

	// Seal, first half: record r of the build is label r and cell r —
	// the real ones first, padding records numbered from total up.
	slots := make([]int, numBuckets*capacity)
	off := postingOffsets(entries, width, func(n int) int { return n })
	labels, spares := make([][LabelSize]byte, len(slots)), labelSpares(suite, total)
	cells := make([]byte, len(slots)*width)
	bucket := make([]int, total)
	encs := make([]secenc.Key, len(entries))
	salt := uint64(0)
	sealEach(suite, len(entries), func(sl *stagSealer, e int) {
		lo, hi := off[e], off[e+1]
		encs[e] = sl.key(entries[e].Stag)
		sl.labels(labels[lo:hi], spares.of(lo, hi))
		sl.buckets(salt, numBuckets, bucket[lo:hi])
	})

	// Plan: slots[b*capacity:(b+1)*capacity] is bucket b, a record
	// number per slot.
	fill := make([]int, numBuckets)
attempt:
	for try := 0; ; try++ {
		if try == retries {
			return nil, fmt.Errorf("sse: tset bucket overflow after %d retries (capacity %d too small for %d postings in %d buckets)",
				retries, capacity, total, numBuckets)
		}
		clear(fill)
		for e, entry := range entries {
			shuffleRun(cells[off[e]*width:off[e+1]*width], entry.Data, width, rnd)
			for r := off[e]; r < off[e+1]; r++ {
				b := bucket[r]
				if fill[b] == capacity {
					salt++
					sealEach(suite, len(entries), func(sl *stagSealer, k int) {
						sl.key(entries[k].Stag)
						sl.buckets(salt, numBuckets, bucket[off[k]:off[k+1]])
					})
					continue attempt
				}
				slots[b*capacity+fill[b]] = r
				fill[b]++
			}
		}
		break
	}
	// Pad every bucket to capacity with random records so all buckets are
	// indistinguishable from full ones, and hide which slots are real.
	pad := total
	for b := range numBuckets {
		bkt := slots[b*capacity : (b+1)*capacity]
		for ; fill[b] < capacity; fill[b]++ {
			fillRandom(labels[pad][:], rnd)
			fillRandom(cells[pad*width:(pad+1)*width], rnd)
			bkt[fill[b]] = pad
			pad++
		}
		rnd.Shuffle(len(bkt), func(i, j int) { bkt[i], bkt[j] = bkt[j], bkt[i] })
	}

	// Seal, second half: the i-th record of a keyword is its cell number
	// i.
	sealEach(suite, len(entries), func(sl *stagSealer, e int) {
		sl.useCellKey(entries[e].Stag, encs[e])
		for r := off[e]; r < off[e+1]; r++ {
			sl.seal(uint64(r-off[e]), cells[r*width:(r+1)*width], spares.at(r))
		}
	})

	// Place: bucket by bucket, slot by slot.
	lb := cellBuilder(eng, len(slots))
	for _, r := range slots {
		if err := lb.Put(labels[r][:], cells[r*width:(r+1)*width]); err != nil {
			return nil, errLabelCollision(err)
		}
	}
	lookup, err := lb.Seal()
	if err != nil {
		return nil, errLabelCollision(err)
	}
	return &tsetIndex{
		suite:      suite,
		width:      width,
		postings:   total,
		salt:       salt,
		capacity:   capacity,
		numBuckets: numBuckets,
		lookup:     lookup,
	}, nil
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
	// lookup is the engine-backed label→cell space searches probe.
	lookup storage.Backend
}

func (x *tsetIndex) Width() int    { return x.width }
func (x *tsetIndex) Postings() int { return x.postings }
func (x *tsetIndex) Resident() int { return x.lookup.Resident() }

// Buckets reports the bucket count; exposed for tests and stats.
func (x *tsetIndex) Buckets() int { return x.numBuckets }

// Capacity reports the per-bucket record capacity.
func (x *tsetIndex) Capacity() int { return x.capacity }

func (x *tsetIndex) Search(stags []Stag, data []byte, ends []int) ([]byte, []int, error) {
	return search(x.suite, x.lookup, x, x.Width(), stags, data, ends)
}

func (x *tsetIndex) readCell(s *cellSearcher, ctr uint64, cell []byte) (bool, error) {
	if len(cell) != x.width {
		return false, fmt.Errorf("%w: tset cell of %d bytes, want %d", ErrCorrupt, len(cell), x.width)
	}
	s.out = s.decrypt(s.out, ctr, cell)
	return true, nil
}

// Sizes is the paper's Fig. 5a accounting of the index — a tag(1)
// width(4) salt(8) postings(8) buckets(8) capacity(4) header, then
// label || cell(width) per slot, padding included — not the length of
// any wire encoding.
func (x *tsetIndex) Sizes() Sizes {
	s := dictSizes(1+4+8+8+8+4, x.lookup)
	if slots := x.lookup.Len(); slots > 0 {
		s.Slack = (s.Labels + s.Cells) / slots * (slots - x.postings)
	}
	return s
}
