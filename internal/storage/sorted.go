package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Sorted is the read-optimized engine: Seal orders the records by key
// once and lays them out as a segment (segment.go) in memory, which the
// segment backend then serves. When every value of a space has the same
// width — true of every SSE dictionary, whose cells are all one length —
// each record is key‖value at one stride, so a probe that finds its key
// has already pulled the value's cache line: one line per posting. A
// space of mixed widths (the tuple store with user payloads) keeps keys
// at a fixed stride and values behind an offset table. The input decides
// the layout; nothing configures it.
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
// A uniform space whose keys are longer than a probe needs (every SSE
// dictionary) stores only the window of each key that tells it from the
// other keys of its directory bucket: 9 of a 16-byte label's bytes at
// four records a bucket, so a record of an 8-byte cell is 17 bytes, not
// 24. Such keys must be pseudorandom (see NewBuilder).
//
// Sealing from already-ascending input only counts the directory. A
// loaded index does not rebuild at all: it serves the sealed segments
// of a copy of its blob in place, and writes them out as they are.
type Sorted struct{}

// Name implements Engine.
func (Sorted) Name() string { return "sorted" }

// maxDirBits caps the radix directory at 2^24 entries (64 MiB), plenty
// beyond the record counts a single index holds.
const maxDirBits = 24

// maxValueHint caps the value bytes a capacity hint reserves before the
// records arrive: a hint is a record count, and one wide first value —
// a tuple store whose first tuple carries a large payload — must not
// multiply it into a huge allocation. Keys are reserved in full: they
// are hint times keyLen.
const maxValueHint = 64 << 20

// NewBuilder implements Engine.
func (Sorted) NewBuilder(keyLen, capacityHint int) Builder {
	return newSortedBuilder(keyLen, capacityHint)
}

func newSortedBuilder(keyLen, capacityHint int) *sortedBuilder {
	return &sortedBuilder{keyLen: keyLen, hint: max(capacityHint, 0), width: -1, ascending: true}
}

// sortedBuilder accumulates records where the segment will hold them:
// buf starts with room for the segment header, so sealing a uniform
// space writes the header, directory and footer around records already
// in place.
type sortedBuilder struct {
	keyLen    int
	hint      int      // capacity hint, spent at the first Put
	width     int      // every value's length so far; -1 before the first Put
	mixed     bool     // values differ in length: buf holds bare keys, values live in vals
	buf       []byte   // header room, then n records at stride: key‖value, or the key alone when mixed
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

func (b *sortedBuilder) key(i int) []byte {
	off := segHeaderSize + i*b.stride()
	return b.buf[off : off+b.keyLen]
}

func (b *sortedBuilder) Put(key, value []byte) error {
	if b.sealed {
		return ErrSealed
	}
	if len(key) != b.keyLen {
		return ErrKeyLen
	}
	if b.n > 0 && b.ascending {
		switch c := bytes.Compare(b.key(b.n-1), key); {
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
		// At four records a bucket the directory takes at most 2n+12
		// bytes; with the padding and the footer, 2n+24 covers the whole
		// tail, so sealing a space of the hinted size copies no record.
		b.buf = make([]byte, segHeaderSize, segHeaderSize+b.hint*(b.keyLen+2)+valueHint+24)
	case !b.mixed && len(value) != b.width:
		b.split()
	}
	b.buf = append(b.buf, key...)
	if b.mixed {
		b.vals = append(b.vals, value...)
		b.offs = append(b.offs, uint64(len(b.vals)))
	} else {
		b.buf = append(b.buf, value...)
	}
	b.n++
	return nil
}

// split moves a builder's records to the mixed layout, at the first
// value whose width differs from the ones before it.
func (b *sortedBuilder) split() {
	stride := b.keyLen + b.width
	keys := make([]byte, segHeaderSize, segHeaderSize+max(b.hint, b.n+1)*b.keyLen)
	b.vals = make([]byte, 0, b.n*b.width)
	b.offs = append(make([]uint64, 0, max(b.hint, b.n)+1), 0)
	for i := 0; i < b.n; i++ {
		rec := b.buf[segHeaderSize+i*stride : segHeaderSize+(i+1)*stride]
		keys = append(keys, rec[:b.keyLen]...)
		b.vals = append(b.vals, rec[b.keyLen:]...)
		b.offs = append(b.offs, uint64(len(b.vals)))
	}
	b.buf, b.mixed = keys, true
}

// Seal implements Builder: the sealed segment is served in place, and
// the backend owns its bytes, all the array holds.
func (b *sortedBuilder) Seal() (Backend, error) {
	seg, err := b.seal()
	if err != nil {
		return nil, err
	}
	x, err := OpenSegment(seg)
	if err == nil {
		x.(*segmentBackend).heap = cap(seg)
	}
	return x, err
}

// seal sorts the records and writes the segment around them: version 3
// for a space of one value width whose keys are longer than the window
// that tells them apart, version 2 for any other space of one value
// width, version 1 for mixed widths. It is the only segment writer.
func (b *sortedBuilder) seal() ([]byte, error) {
	if b.sealed {
		return nil, ErrSealed
	}
	b.sealed = true
	if b.keyLen < 1 || b.keyLen > math.MaxUint16 || int64(b.width) > math.MaxUint32 {
		return nil, fmt.Errorf("storage: segment of %d-byte keys and %d-byte values", b.keyLen, b.width)
	}
	if b.mixed && !b.ascending {
		b.sortMixed()
	}
	version, width, dirBits := uint16(2), max(b.width, 0), dirBitsFor(b.n>>2, b.keyLen)
	valsLen := uint64(b.n * width)
	if b.mixed {
		// Version 1, byte for byte as the format has always written it.
		version, width, dirBits, valsLen = 1, 0, dirBitsFor(b.n, b.keyLen), uint64(len(b.vals))
	}
	if b.n == 0 {
		dirBits = 0
	}
	dir, fullest := b.directory(dirBits)
	keyLen, n := uint64(b.keyLen), uint64(b.n)
	l := layoutFor(version, keyLen, n, valsLen, uint8(dirBits))
	buf := slices.Grow(b.buf, int(l.total)-len(b.buf))
	if len(buf) == 0 {
		buf = buf[:segHeaderSize] // no records arrived, so no Put made the header room
	}
	if b.mixed {
		buf = appendZeros(buf, l.offsOff)
		for _, o := range b.offs {
			buf = binary.BigEndian.AppendUint64(buf, o)
		}
		buf = append(buf, b.vals...)
	}
	buf = appendZeros(buf, l.dirOff)
	for _, d := range dir {
		buf = binary.BigEndian.AppendUint32(buf, d)
	}
	kw := 0 // version 3's stored key width
	if !b.mixed && dirBits > 0 {
		if s := keyWindow(fullest, dirBits); int(dirBits/8)+s < b.keyLen {
			var err error
			if buf, l, err = b.truncate(buf, buf[l.dirOff:l.footerOff], s, dirBits); err != nil {
				return nil, err
			}
			version, kw = 3, s
		}
	}
	if kw == 0 && !b.ascending {
		// Adjacent equal keys are the only possible duplicates once sorted.
		for i := 1; i < b.n; i++ {
			if bytes.Equal(b.key(i-1), b.key(i)) {
				return nil, ErrDuplicateKey
			}
		}
	}

	hdr := buf[:segHeaderSize]
	copy(hdr[0:4], segMagic)
	binary.BigEndian.PutUint16(hdr[4:6], version)
	binary.BigEndian.PutUint16(hdr[6:8], uint16(keyLen))
	binary.BigEndian.PutUint64(hdr[8:16], n)
	binary.BigEndian.PutUint64(hdr[16:24], valsLen)
	hdr[24] = uint8(dirBits)
	hdr[25] = uint8(kw)
	binary.BigEndian.PutUint32(hdr[28:32], uint32(width))
	binary.BigEndian.PutUint64(hdr[32:40], l.total)
	binary.BigEndian.PutUint32(hdr[40:44], crc32c(hdr[0:40]))
	return binary.BigEndian.AppendUint32(buf, crc32c(buf[segHeaderSize:])), nil
}

// keyWindow is the key width, in bytes, that a pseudorandom space
// whose fullest directory bucket holds m records stores: the least s for
// which a probe that misses false-matches one of its bucket's records
// with probability at most m·2^-(8s-r) ≤ 2^-64. The window starts at
// the directory prefix's last whole byte, so its first r = dirBits mod
// 8 bits are the bucket's, alike in all of its records.
func keyWindow(m int, dirBits uint) int {
	return (64 + int(dirBits%8) + bits.Len(uint(m-1)) + 7) / 8
}

// truncate rewrites a sealed uniform space, buf, as version 3, into an
// array of its own length so that the full-width records are freed:
// each record keeps the s-byte window of its key below the directory's
// whole bytes, and the directory, dir, follows the records. Two keys
// that agree up to the window's end, which sorting has put side by
// side, are refused.
func (b *sortedBuilder) truncate(buf, dir []byte, s int, dirBits uint) ([]byte, segmentLayout, error) {
	koff, stride, w := int(dirBits/8), b.stride(), b.width
	l := layoutFor(3, uint64(s), uint64(b.n), uint64(b.n*w), uint8(dirBits))
	out := make([]byte, segHeaderSize, l.footerOff+segFooterSize)
	recs := buf[segHeaderSize:]
	for i := 0; i < b.n; i++ {
		rec := recs[i*stride : (i+1)*stride]
		if i+1 < b.n && bytes.Equal(rec[:koff+s], recs[(i+1)*stride:(i+1)*stride+koff+s]) {
			return nil, segmentLayout{}, ErrDuplicateKey
		}
		out = append(append(out, rec[koff:koff+s]...), rec[b.keyLen:]...)
	}
	out = appendZeros(out, l.dirOff)
	return append(out, dir...), l, nil
}

// appendZeros pads buf with zero bytes to length off.
func appendZeros(buf []byte, off uint64) []byte {
	return append(buf, make([]byte, off-uint64(len(buf)))...)
}

// sortMixed orders the mixed layout's records by key through a sorted
// permutation of their keys.
func (b *sortedBuilder) sortMixed() {
	ord := make([]int, b.n)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool {
		return bytes.Compare(b.key(ord[i]), b.key(ord[j])) < 0
	})
	keys := make([]byte, segHeaderSize, len(b.buf))
	vals := make([]byte, 0, len(b.vals))
	offs := append(make([]uint64, 0, b.n+1), 0)
	for _, i := range ord {
		keys = append(keys, b.key(i)...)
		vals = append(vals, b.vals[b.offs[i]:b.offs[i+1]]...)
		offs = append(offs, uint64(len(vals)))
	}
	b.buf, b.vals, b.offs = keys, vals, offs
}

// directory returns the radix directory over the leading bits of the
// records' keys — entry p is the first record whose key prefix reaches
// p, entry 1<<bits is n — and the most records one of its buckets
// holds; none for no bits. One counting pass makes it. A uniform layout
// that did not arrive in order is then sorted in place (placeRecords),
// so sealing holds one copy of the records, not two.
func (b *sortedBuilder) directory(bits uint) (dir []uint32, fullest int) {
	if bits == 0 {
		return nil, 0
	}
	stride, recs := b.stride(), b.buf[segHeaderSize:segHeaderSize+b.n*b.stride()]
	dir = make([]uint32, 1<<bits+1)
	for i := 0; i < len(recs); i += stride {
		dir[loadPrefix(recs[i:i+b.keyLen])>>(64-bits)+1]++
	}
	for p := 1; p < len(dir); p++ {
		fullest = max(fullest, int(dir[p]))
		dir[p] += dir[p-1]
	}
	if !b.ascending && !b.mixed {
		placeRecords(recs, stride, b.keyLen, 0, make([]byte, stride))
	}
	return dir, fullest
}

const insertionMax = 32 // the most records placeRecords insertion-sorts

// placeRecords sorts recs, records of stride bytes that each start with
// a keyLen-byte key agreeing on its first k bytes, by key, in place: an
// American-flag pass swaps each record into its bucket of key byte k,
// and each bucket is sorted the same way on the next byte, down to
// insertionMax records. Keys that share leading bytes cost a pass per
// byte, never a quadratic bucket. tmp has room for one record.
func placeRecords(recs []byte, stride, keyLen, k int, tmp []byte) {
	if len(recs) <= insertionMax*stride || k == keyLen {
		insertionSort(recs, stride, keyLen, tmp)
		return
	}
	var starts [257]uint32
	for i := k; i < len(recs); i += stride {
		starts[int(recs[i])+1]++
	}
	for d := 1; d < len(starts); d++ {
		starts[d] += starts[d-1]
	}
	next := starts
	for d := range 256 {
		for next[d] < starts[d+1] {
			a := recs[int(next[d])*stride:][:stride]
			e := a[k]
			if int(e) == d {
				next[d]++
				continue
			}
			b := recs[int(next[e])*stride:][:stride]
			next[e]++
			copy(tmp, a)
			copy(a, b)
			copy(b, tmp)
		}
	}
	for d := range 256 {
		placeRecords(recs[int(starts[d])*stride:int(starts[d+1])*stride], stride, keyLen, k+1, tmp)
	}
}

// insertionSort sorts a few records of stride bytes by their leading
// keyLen-byte keys, in place, with tmp for one record.
func insertionSort(recs []byte, stride, keyLen int, tmp []byte) {
	for i := stride; i < len(recs); i += stride {
		key := recs[i : i+keyLen]
		j := i
		for j > 0 && bytes.Compare(key, recs[j-stride:j-stride+keyLen]) < 0 {
			j -= stride
		}
		if j < i {
			copy(tmp, recs[i:i+stride])
			copy(recs[j+stride:i+stride], recs[j:i])
			copy(recs[j:], tmp)
		}
	}
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

// dirBitsFor sizes a radix directory to ~one bucket per n, capped at
// maxDirBits and at the key's own bit length.
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
