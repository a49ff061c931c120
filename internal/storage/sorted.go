package storage

import (
	"bytes"
	"encoding/binary"
	"sort"
)

// Sorted is the read-optimized engine: records live in flat byte
// arrays, sorted by key once at Seal. When every value of a space has
// the same width — true of every SSE dictionary, whose cells are all
// one length — each record is laid out as key‖value at one stride, so
// a probe that finds its key has already pulled the value's cache line:
// one line per posting. A space of mixed widths (the tuple store with
// user payloads) keeps keys at a fixed stride and values behind an
// offset table. The input decides the layout; nothing configures it.
//
// A radix directory over the leading key bits, sized at about four
// records per bucket, cuts each lookup to one table probe plus a short
// binary search within a line or two of records — for the pseudorandom
// (uniform) 16-byte labels the SSE dictionaries store, with none of a
// hash map's per-entry allocation or pointer chasing.
//
// Skewed key spaces (e.g. small sequential ids in the tuple store, whose
// big-endian encodings share their leading bytes) collapse into one
// directory bucket and degrade gracefully to a plain binary search.
//
// Sealing from already-ascending input — the case for every wire format,
// which serializes in Iterate order — skips the sort entirely, so
// UnmarshalIndex onto this engine is linear.
type Sorted struct{}

// Name implements Engine.
func (Sorted) Name() string { return "sorted" }

// maxDirBits caps the radix directory at 2^24 entries (64 MiB), plenty
// beyond the record counts a single index holds.
const maxDirBits = 24

// maxValueHint caps the value bytes a capacity hint reserves before the
// records arrive: Load's hint is a record count from a file, and one
// wide first value must not multiply it into a huge allocation. Keys
// are reserved in full, as the record count is checked against the
// file's length.
const maxValueHint = 64 << 20

// NewBuilder implements Engine.
func (Sorted) NewBuilder(keyLen, capacityHint int) Builder {
	return &sortedBuilder{keyLen: keyLen, hint: max(capacityHint, 0), width: -1, ascending: true}
}

type sortedBuilder struct {
	keyLen    int
	hint      int      // capacity hint, spent at the first Put
	width     int      // every value's length so far; -1 before the first Put
	mixed     bool     // values differ in length: recs holds bare keys, values live in vals
	recs      []byte   // n records at stride: key‖value, or the key alone when mixed
	vals      []byte   // mixed only: concatenated values
	offs      []uint64 // mixed only: n+1 value boundaries, record i is vals[offs[i]:offs[i+1]]
	n         int
	ascending bool // input arrived in strictly ascending key order so far
	sealed    bool
}

func (b *sortedBuilder) stride() int {
	if b.mixed {
		return b.keyLen
	}
	return b.keyLen + b.width
}

func (b *sortedBuilder) Put(key, value []byte) error {
	if b.sealed {
		return ErrSealed
	}
	if len(key) != b.keyLen {
		return ErrKeyLen
	}
	if b.n > 0 && b.ascending {
		prev := b.recs[(b.n-1)*b.stride():]
		switch c := bytes.Compare(prev[:b.keyLen], key); {
		case c == 0:
			return ErrDuplicateKey
		case c > 0:
			b.ascending = false
		}
	}
	switch {
	case b.width < 0:
		b.width = len(value)
		valueHint := maxValueHint
		if b.width == 0 || b.hint <= maxValueHint/b.width {
			valueHint = b.hint * b.width
		}
		b.recs = make([]byte, 0, b.hint*b.keyLen+valueHint)
	case !b.mixed && len(value) != b.width:
		b.split()
	}
	b.recs = append(b.recs, key...)
	if b.mixed {
		b.vals = append(b.vals, value...)
		b.offs = append(b.offs, uint64(len(b.vals)))
	} else {
		b.recs = append(b.recs, value...)
	}
	b.n++
	return nil
}

// split moves a builder's records to the mixed layout, at the first
// value whose width differs from the ones before it.
func (b *sortedBuilder) split() {
	stride := b.keyLen + b.width
	keys := make([]byte, 0, max(b.hint, b.n+1)*b.keyLen)
	b.vals = make([]byte, 0, b.n*b.width)
	b.offs = append(make([]uint64, 0, max(b.hint, b.n)+1), 0)
	for i := 0; i < b.n; i++ {
		rec := b.recs[i*stride : (i+1)*stride]
		keys = append(keys, rec[:b.keyLen]...)
		b.vals = append(b.vals, rec[b.keyLen:]...)
		b.offs = append(b.offs, uint64(len(b.vals)))
	}
	b.recs, b.mixed = keys, true
}

func (b *sortedBuilder) Seal() (Backend, error) {
	if b.sealed {
		return nil, ErrSealed
	}
	b.sealed = true
	if b.width < 0 {
		b.width = 0 // no records: an empty uniform space
	}
	x := &sortedBackend{keyLen: b.keyLen, stride: b.stride(), recs: b.recs, n: b.n}
	if b.mixed {
		x.vals, x.offs = b.vals, b.offs
	}
	if !b.ascending {
		x.sortRecords()
	}
	// Adjacent equal keys are the only possible duplicates once sorted.
	for i := 1; i < x.n; i++ {
		if bytes.Equal(x.key(i-1), x.key(i)) {
			return nil, ErrDuplicateKey
		}
	}
	x.buildDirectory()
	return x, nil
}

// sortedBackend holds n records in recs at stride. With offs nil the
// layout is uniform: record i is key‖value, its value the stride's tail.
// Otherwise record i in recs is the key alone, and its value is
// vals[offs[i]:offs[i+1]].
type sortedBackend struct {
	keyLen int
	stride int
	recs   []byte
	vals   []byte
	offs   []uint64
	n      int

	dirBits uint
	dir     []uint32 // dir[p] = first record whose key prefix is >= p
}

func (x *sortedBackend) key(i int) []byte {
	return x.recs[i*x.stride : i*x.stride+x.keyLen]
}

// val returns record i's value with no spare capacity, so an append by
// the caller copies instead of writing over the next record.
func (x *sortedBackend) val(i int) []byte {
	if x.offs == nil {
		end := (i + 1) * x.stride
		return x.recs[i*x.stride+x.keyLen : end : end]
	}
	return x.vals[x.offs[i]:x.offs[i+1]:x.offs[i+1]]
}

// sortRecords orders the records by key: the uniform layout in place,
// the mixed one through a sorted permutation.
func (x *sortedBackend) sortRecords() {
	if x.offs == nil {
		sort.Sort(strideRecords{x, make([]byte, x.stride)})
		return
	}
	ord := make([]int, x.n)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		return bytes.Compare(x.key(ord[a]), x.key(ord[b])) < 0
	})
	keys := make([]byte, 0, len(x.recs))
	vals := make([]byte, 0, len(x.vals))
	offs := append(make([]uint64, 0, x.n+1), 0)
	for _, i := range ord {
		keys = append(keys, x.key(i)...)
		vals = append(vals, x.val(i)...)
		offs = append(offs, uint64(len(vals)))
	}
	x.recs, x.vals, x.offs = keys, vals, offs
}

// strideRecords sorts a uniform layout's records in place, so sealing
// unordered input holds one copy of the records, not two.
type strideRecords struct {
	x   *sortedBackend
	tmp []byte // one record of swap scratch
}

func (r strideRecords) Len() int { return r.x.n }
func (r strideRecords) Less(i, j int) bool {
	return bytes.Compare(r.x.key(i), r.x.key(j)) < 0
}
func (r strideRecords) Swap(i, j int) {
	s := r.x.stride
	a, b := r.x.recs[i*s:(i+1)*s], r.x.recs[j*s:(j+1)*s]
	copy(r.tmp, a)
	copy(a, b)
	copy(b, r.tmp)
}

// loadPrefix left-aligns the first (up to) eight key bytes into a uint64,
// so prefix order equals lexicographic key order.
func loadPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var v uint64
	for i := 0; i < len(key); i++ {
		v |= uint64(key[i]) << (56 - 8*uint(i))
	}
	return v
}

// dirBitsFor sizes a radix directory to ~one record per bucket, capped
// at maxDirBits and at the key's own bit length.
func dirBitsFor(n, keyLen int) uint {
	bits := uint(1)
	for 1<<bits < n && bits < maxDirBits {
		bits++
	}
	if max := uint(8 * keyLen); keyLen < 8 && bits > max {
		bits = max
	}
	return bits
}

// buildDir fills a ((1<<bits)+1)-entry directory over n sorted records
// at a stride, each starting with its keyLen-byte key: dir[p] is the
// first record whose key prefix reaches p, dir[1<<bits] is n. Shared by
// the Sorted engine and the segment writer.
func buildDir(recs []byte, stride, keyLen, n int, bits uint) []uint32 {
	dir := make([]uint32, (1<<bits)+1)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		p := loadPrefix(recs[i*stride:i*stride+keyLen]) >> (64 - bits)
		for q := prev + 1; q <= p; q++ {
			dir[q] = uint32(i)
		}
		prev = p
	}
	for q := prev + 1; q < uint64(len(dir)); q++ {
		dir[q] = uint32(n)
	}
	return dir
}

// buildDirectory attaches the radix directory to a sealed backend, at
// about four records per bucket: a bucket's records then share a line
// or two, and the directory is a quarter the size the segment format
// stores.
func (x *sortedBackend) buildDirectory() {
	if x.n == 0 {
		return
	}
	x.dirBits = dirBitsFor(x.n>>2, x.keyLen)
	x.dir = buildDir(x.recs, x.stride, x.keyLen, x.n, x.dirBits)
}

func (x *sortedBackend) Get(key []byte) ([]byte, bool) {
	if len(key) != x.keyLen || x.n == 0 {
		return nil, false
	}
	kp := loadPrefix(key)
	p := kp >> (64 - x.dirBits)
	lo, hi := int(x.dir[p]), int(x.dir[p+1])
	kl, stride := x.keyLen, x.stride
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		rec := x.recs[mid*stride : mid*stride+stride]
		mk := rec[:kl]
		// Compare the 8-byte prefixes as integers; fall back to the tail
		// bytes only on a prefix tie.
		c := 0
		switch mp := loadPrefix(mk); {
		case mp < kp:
			c = -1
		case mp > kp:
			c = 1
		case kl > 8:
			c = bytes.Compare(mk[8:], key[8:])
		}
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		case x.offs == nil:
			// The value shares the line the key was just read from.
			return rec[kl:stride:stride], true
		default:
			return x.val(mid), true
		}
	}
	return nil, false
}

func (x *sortedBackend) Len() int    { return x.n }
func (x *sortedBackend) KeyLen() int { return x.keyLen }

// Resident reports the heap bytes the flat arrays pin.
func (x *sortedBackend) Resident() int {
	return len(x.recs) + len(x.vals) + 8*len(x.offs) + 4*len(x.dir)
}

func (x *sortedBackend) Iterate(fn func(key, value []byte) bool) {
	for i := 0; i < x.n; i++ {
		if !fn(x.key(i), x.val(i)) {
			return
		}
	}
}

func (x *sortedBackend) valueBytes() int {
	if x.offs == nil {
		return x.n * (x.stride - x.keyLen)
	}
	return len(x.vals)
}
