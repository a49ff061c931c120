package storage

import (
	"bytes"
	"encoding/binary"
	"sort"
)

// Sorted is the read-optimized engine: records live in two flat byte
// arrays (keys at a fixed stride, values behind an offset table), sorted
// by key once at Seal. A radix directory over the leading key bits cuts
// each lookup to one table probe plus a short binary search — for the
// pseudorandom (uniform) 16-byte labels the SSE dictionaries store, the
// expected search interval is a single record, so a probe costs one
// directory read and one key comparison, with none of a hash map's
// per-entry allocation or pointer chasing.
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

// NewBuilder implements Engine.
func (Sorted) NewBuilder(keyLen, capacityHint int) Builder {
	if capacityHint < 0 {
		capacityHint = 0
	}
	return &sortedBuilder{
		keyLen:    keyLen,
		keys:      make([]byte, 0, capacityHint*keyLen),
		offs:      append(make([]uint64, 0, capacityHint+1), 0),
		ascending: true,
	}
}

type sortedBuilder struct {
	keyLen    int
	keys      []byte   // n records at keyLen stride
	vals      []byte   // concatenated values
	offs      []uint64 // n+1 value boundaries: record i is vals[offs[i]:offs[i+1]]
	n         int
	ascending bool // input arrived in strictly ascending key order so far
	sealed    bool
}

func (b *sortedBuilder) Put(key, value []byte) error {
	if b.sealed {
		return ErrSealed
	}
	if len(key) != b.keyLen {
		return ErrKeyLen
	}
	if b.n > 0 && b.ascending {
		prev := b.keys[(b.n-1)*b.keyLen:]
		switch c := bytes.Compare(prev[:b.keyLen], key); {
		case c == 0:
			return ErrDuplicateKey
		case c > 0:
			b.ascending = false
		}
	}
	b.keys = append(b.keys, key...)
	b.vals = append(b.vals, value...)
	b.offs = append(b.offs, uint64(len(b.vals)))
	b.n++
	return nil
}

func (b *sortedBuilder) Seal() (Backend, error) {
	if b.sealed {
		return nil, ErrSealed
	}
	b.sealed = true
	x := &sortedBackend{keyLen: b.keyLen, keys: b.keys, vals: b.vals, offs: b.offs, n: b.n}
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

type sortedBackend struct {
	keyLen int
	keys   []byte
	vals   []byte
	offs   []uint64
	n      int

	dirBits uint
	dir     []uint32 // dir[p] = first record whose key prefix is >= p
}

func (x *sortedBackend) key(i int) []byte {
	return x.keys[i*x.keyLen : (i+1)*x.keyLen]
}

func (x *sortedBackend) val(i int) []byte {
	return x.vals[x.offs[i]:x.offs[i+1]]
}

// sortRecords orders the flat arrays by key via a sorted permutation.
func (x *sortedBackend) sortRecords() {
	ord := make([]int, x.n)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		return bytes.Compare(x.key(ord[a]), x.key(ord[b])) < 0
	})
	keys := make([]byte, 0, len(x.keys))
	vals := make([]byte, 0, len(x.vals))
	offs := append(make([]uint64, 0, x.n+1), 0)
	for _, i := range ord {
		keys = append(keys, x.key(i)...)
		vals = append(vals, x.val(i)...)
		offs = append(offs, uint64(len(vals)))
	}
	x.keys, x.vals, x.offs = keys, vals, offs
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

// buildDir fills a ((1<<bits)+1)-entry directory over n sorted keys at a
// keyLen stride: dir[p] is the first record whose key prefix reaches p,
// dir[1<<bits] is n. Shared by the Sorted engine and the segment writer.
func buildDir(keys []byte, keyLen, n int, bits uint) []uint32 {
	dir := make([]uint32, (1<<bits)+1)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		p := loadPrefix(keys[i*keyLen:(i+1)*keyLen]) >> (64 - bits)
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

// buildDirectory attaches the radix directory to a sealed backend.
func (x *sortedBackend) buildDirectory() {
	if x.n == 0 {
		return
	}
	x.dirBits = dirBitsFor(x.n, x.keyLen)
	x.dir = buildDir(x.keys, x.keyLen, x.n, x.dirBits)
}

func (x *sortedBackend) Get(key []byte) ([]byte, bool) {
	if len(key) != x.keyLen || x.n == 0 {
		return nil, false
	}
	kp := loadPrefix(key)
	p := kp >> (64 - x.dirBits)
	lo, hi := int(x.dir[p]), int(x.dir[p+1])
	kl := x.keyLen
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		mk := x.keys[mid*kl : mid*kl+kl]
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
		default:
			return x.vals[x.offs[mid]:x.offs[mid+1]], true
		}
	}
	return nil, false
}

func (x *sortedBackend) Len() int    { return x.n }
func (x *sortedBackend) KeyLen() int { return x.keyLen }

// Resident reports the heap bytes the flat arrays pin.
func (x *sortedBackend) Resident() int {
	return len(x.keys) + len(x.vals) + 8*len(x.offs) + 4*len(x.dir)
}

func (x *sortedBackend) Iterate(fn func(key, value []byte) bool) {
	for i := 0; i < x.n; i++ {
		if !fn(x.key(i), x.val(i)) {
			return
		}
	}
}

func (x *sortedBackend) Snapshot() Backend { return x }

func (x *sortedBackend) valueBytes() int { return len(x.vals) }
