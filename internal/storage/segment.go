package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The sealed-segment file format: a self-describing, checksummed flat
// encoding of one immutable key space, laid out so a Backend can answer
// Get and Iterate by binary search directly over the raw bytes — the
// representation the Disk engine serves from, with zero per-record
// copies between the file and the query path.
//
// Layout (all integers big-endian):
//
//	header (48 bytes):
//	  [0:4)   magic "RSG1"
//	  [4:6)   format version (currently 1)
//	  [6:8)   key length in bytes
//	  [8:16)  record count n
//	  [16:24) value-heap length in bytes
//	  [24]    radix directory bits (0 = no directory)
//	  [25:32) reserved, zero
//	  [32:40) total segment length, footer included
//	  [40:44) CRC-32C of header bytes [0:40)
//	  [44:48) reserved, zero
//	body (starts 8-aligned at offset 48):
//	  keys     n*keyLen bytes, strictly ascending; padded to 8
//	  offsets  (n+1) uint64 value-heap boundaries
//	  values   value heap; padded to 4
//	  dir      ((1<<dirBits)+1) uint32 entries, present iff dirBits > 0
//	footer:
//	  CRC-32C of the body
//
// The header checksum makes truncation and header bit-flips an O(1)
// rejection; the body checksum (verified once at open, at memory
// bandwidth) catches everything else, so the serve path can skip
// per-record validation. Get and Iterate still bounds-check the offsets
// they dereference, so even an adversarially crafted, checksum-valid
// segment cannot read outside the mapped region.

// ErrCorruptSegment is returned when segment bytes fail to parse or
// checksum.
var ErrCorruptSegment = errors.New("storage: corrupt segment")

const (
	segMagic      = "RSG1"
	segVersion    = 1
	segHeaderSize = 48
	segFooterSize = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pad8 and pad4 round a length up to the next alignment boundary.
func pad8(n uint64) uint64 { return (n + 7) &^ 7 }
func pad4(n uint64) uint64 { return (n + 3) &^ 3 }

// segmentLayout computes the section offsets of a segment with the given
// shape. All arithmetic is overflow-checked by the caller (OpenSegment)
// before this runs on untrusted values.
type segmentLayout struct {
	keysOff, offsOff, valsOff, dirOff, footerOff, total uint64
}

func layoutFor(keyLen, n, valsLen uint64, dirBits uint8) segmentLayout {
	var l segmentLayout
	l.keysOff = segHeaderSize
	l.offsOff = pad8(l.keysOff + n*keyLen)
	l.valsOff = l.offsOff + (n+1)*8
	l.dirOff = pad4(l.valsOff + valsLen)
	l.footerOff = l.dirOff
	if dirBits > 0 {
		l.footerOff += ((1 << dirBits) + 1) * 4
	}
	l.total = l.footerOff + segFooterSize
	return l
}

// EncodeSegment serializes a sealed backend into the segment format. Any
// Backend works; the records are written in Iterate (ascending key)
// order, which is exactly the order the format requires. The engines'
// own backends know their value bytes, so they are walked once; any
// other backend is walked once more first, to count them.
func EncodeSegment(b Backend) ([]byte, error) {
	keyLen := uint64(b.KeyLen())
	n := uint64(b.Len())
	if keyLen == 0 || keyLen > 1<<16-1 {
		return nil, fmt.Errorf("storage: segment key length %d outside 1..65535", keyLen)
	}
	var valsLen uint64
	if vs, ok := b.(valueSizer); ok {
		valsLen = uint64(vs.valueBytes())
	} else {
		b.Iterate(func(_, v []byte) bool {
			valsLen += uint64(len(v))
			return true
		})
	}
	dirBits := uint8(0)
	if n > 0 {
		dirBits = uint8(dirBitsFor(int(n), int(keyLen)))
	}
	l := layoutFor(keyLen, n, valsLen, dirBits)
	out := make([]byte, l.total)

	// Header.
	copy(out[0:4], segMagic)
	binary.BigEndian.PutUint16(out[4:6], segVersion)
	binary.BigEndian.PutUint16(out[6:8], uint16(keyLen))
	binary.BigEndian.PutUint64(out[8:16], n)
	binary.BigEndian.PutUint64(out[16:24], valsLen)
	out[24] = dirBits
	binary.BigEndian.PutUint64(out[32:40], l.total)
	binary.BigEndian.PutUint32(out[40:44], crc32.Checksum(out[0:40], crcTable))

	// Body: keys, offsets and values in one pass.
	keys := out[l.keysOff : l.keysOff+n*keyLen]
	offs := out[l.offsOff:l.valsOff]
	vals := out[l.valsOff : l.valsOff+valsLen]
	var i, voff uint64
	b.Iterate(func(k, v []byte) bool {
		if i == n || uint64(len(v)) > valsLen-voff {
			i = n + 1 // more than the backend reported: refused below
			return false
		}
		copy(keys[i*keyLen:], k)
		binary.BigEndian.PutUint64(offs[i*8:], voff)
		copy(vals[voff:], v)
		voff += uint64(len(v))
		i++
		return true
	})
	if i != n || voff != valsLen {
		// A backend whose Iterate stops short of Len() — e.g. a
		// checksum-valid but crafted segment with a lying offset table —
		// must not be re-encoded into a silently empty segment.
		return nil, fmt.Errorf("storage: backend iterated %d of %d records (%d of %d value bytes)", i, n, voff, valsLen)
	}
	binary.BigEndian.PutUint64(offs[n*8:], voff)

	if dirBits > 0 {
		dir := buildDir(keys, int(keyLen), int(keyLen), int(n), uint(dirBits))
		raw := out[l.dirOff:l.footerOff]
		for j, d := range dir {
			binary.BigEndian.PutUint32(raw[j*4:], d)
		}
	}
	binary.BigEndian.PutUint32(out[l.footerOff:],
		crc32.Checksum(out[segHeaderSize:l.footerOff], crcTable))
	return out, nil
}

// valueSizer is implemented by the engines' own backends, which know the
// total length of their values without visiting them.
type valueSizer interface {
	valueBytes() int
}

// OpenSegment validates a serialized segment and returns a Backend that
// answers queries directly over data, without copying records. The
// backend aliases data for its whole lifetime: data must stay valid (and
// unmodified) until the backend is unreachable.
//
// Validation is O(1) structural checks plus one sequential checksum pass;
// no per-record work and no allocation proportional to the input.
func OpenSegment(data []byte) (Backend, error) {
	if len(data) < segHeaderSize+segFooterSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrCorruptSegment, len(data))
	}
	if string(data[0:4]) != segMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	if crc32.Checksum(data[0:40], crcTable) != binary.BigEndian.Uint32(data[40:44]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorruptSegment)
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != segVersion {
		return nil, fmt.Errorf("%w: unsupported segment version %d", ErrCorruptSegment, v)
	}
	keyLen := uint64(binary.BigEndian.Uint16(data[6:8]))
	n := binary.BigEndian.Uint64(data[8:16])
	valsLen := binary.BigEndian.Uint64(data[16:24])
	dirBits := data[24]
	total := binary.BigEndian.Uint64(data[32:40])
	if keyLen == 0 || dirBits > maxDirBits || (n == 0 && dirBits != 0) {
		return nil, fmt.Errorf("%w: bad shape", ErrCorruptSegment)
	}
	// The pad after the header checksum is the only region neither CRC
	// covers; require it zero so every byte of the file is pinned down.
	if data[44] != 0 || data[45] != 0 || data[46] != 0 || data[47] != 0 {
		return nil, fmt.Errorf("%w: nonzero header padding", ErrCorruptSegment)
	}
	// Bound every factor against the real input size before computing the
	// layout, so the multiplications below cannot overflow.
	avail := uint64(len(data))
	if n > avail/keyLen || n+1 > avail/8 || valsLen > avail {
		return nil, fmt.Errorf("%w: counts exceed input", ErrCorruptSegment)
	}
	l := layoutFor(keyLen, n, valsLen, dirBits)
	if l.total != total || total != avail {
		return nil, fmt.Errorf("%w: length %d does not match declared layout %d", ErrCorruptSegment, avail, l.total)
	}
	if crc32.Checksum(data[segHeaderSize:l.footerOff], crcTable) !=
		binary.BigEndian.Uint32(data[l.footerOff:]) {
		return nil, fmt.Errorf("%w: body checksum mismatch", ErrCorruptSegment)
	}
	return &segmentBackend{
		keyLen:  int(keyLen),
		n:       int(n),
		keys:    data[l.keysOff : l.keysOff+n*keyLen],
		offs:    data[l.offsOff:l.valsOff],
		vals:    data[l.valsOff : l.valsOff+valsLen],
		dirBits: uint(dirBits),
		dir:     data[l.dirOff:l.footerOff],
	}, nil
}

// SegmentStats reports the shape of a serialized segment from its header
// alone: record count, key length and total value bytes. It performs the
// O(1) header checks only — use OpenSegment for full validation.
func SegmentStats(data []byte) (n int, keyLen int, valueBytes int64, err error) {
	if len(data) < segHeaderSize || string(data[0:4]) != segMagic {
		return 0, 0, 0, fmt.Errorf("%w: not a segment header", ErrCorruptSegment)
	}
	if crc32.Checksum(data[0:40], crcTable) != binary.BigEndian.Uint32(data[40:44]) {
		return 0, 0, 0, fmt.Errorf("%w: header checksum mismatch", ErrCorruptSegment)
	}
	return int(binary.BigEndian.Uint64(data[8:16])),
		int(binary.BigEndian.Uint16(data[6:8])),
		int64(binary.BigEndian.Uint64(data[16:24])), nil
}

// Load reconstructs a Backend from segment bytes onto eng. Engines that
// can serve the format in place (the Disk engine, via the Opener
// interface) alias data directly; every other engine gets a one-pass
// rebuild through its Builder, copying each record exactly once. Since
// segments store records in ascending key order, rebuilding onto the
// Sorted engine is linear.
func Load(data []byte, eng Engine) (Backend, error) {
	eng = OrDefault(eng)
	if o, ok := eng.(Opener); ok {
		return o.Open(data)
	}
	seg, err := OpenSegment(data)
	if err != nil {
		return nil, err
	}
	b := eng.NewBuilder(seg.KeyLen(), seg.Len())
	var perr error
	seg.Iterate(func(k, v []byte) bool {
		perr = b.Put(k, v)
		return perr == nil
	})
	if perr != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, perr)
	}
	x, err := b.Seal()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
	}
	return x, nil
}

// segmentBackend serves queries straight off serialized segment bytes:
// keys, offsets, values and the radix directory are all views into the
// underlying (possibly memory-mapped) buffer. Get mirrors the Sorted
// engine's directory-plus-binary-search probe; the only extra work per
// probe is decoding two big-endian offsets.
type segmentBackend struct {
	keyLen  int
	n       int
	keys    []byte
	offs    []byte // (n+1) big-endian uint64
	vals    []byte
	dirBits uint
	dir     []byte // ((1<<dirBits)+1) big-endian uint32
	heap    int    // bytes of heap the backend owns (set when it holds the only reference to the buffer)
}

func (x *segmentBackend) key(i int) []byte {
	return x.keys[i*x.keyLen : (i+1)*x.keyLen]
}

// val returns record i's value, re-checking the offsets it dereferences:
// the checksum makes bad offsets unreachable by accident, but a crafted
// segment must degrade to a miss, never an out-of-range slice. The value
// has no spare capacity: an append copies instead of writing over the
// next record (or faulting on a read-only mapping).
func (x *segmentBackend) val(i int) ([]byte, bool) {
	lo := binary.BigEndian.Uint64(x.offs[i*8:])
	hi := binary.BigEndian.Uint64(x.offs[(i+1)*8:])
	if lo > hi || hi > uint64(len(x.vals)) {
		return nil, false
	}
	return x.vals[lo:hi:hi], true
}

func (x *segmentBackend) Get(key []byte) ([]byte, bool) {
	if len(key) != x.keyLen || x.n == 0 {
		return nil, false
	}
	kp := loadPrefix(key)
	lo, hi := 0, x.n
	if x.dirBits > 0 {
		p := kp >> (64 - x.dirBits)
		lo = int(binary.BigEndian.Uint32(x.dir[p*4:]))
		hi = int(binary.BigEndian.Uint32(x.dir[p*4+4:]))
		// Clamp untrusted directory entries to the record range.
		if lo > x.n {
			lo = x.n
		}
		if hi > x.n {
			hi = x.n
		}
	}
	kl := x.keyLen
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		mk := x.keys[mid*kl : mid*kl+kl]
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
			return x.val(mid)
		}
	}
	return nil, false
}

func (x *segmentBackend) Len() int    { return x.n }
func (x *segmentBackend) KeyLen() int { return x.keyLen }

func (x *segmentBackend) Iterate(fn func(key, value []byte) bool) {
	for i := 0; i < x.n; i++ {
		v, ok := x.val(i)
		if !ok {
			return
		}
		if !fn(x.key(i), v) {
			return
		}
	}
}

func (x *segmentBackend) valueBytes() int { return len(x.vals) }

// Resident reports zero for segments opened over caller-owned buffers
// (blobs, memory-mapped files) — the buffer is accounted for by whoever
// opened it — and the full encoding size for segments the Disk builder
// sealed in memory, where the backend holds the only reference.
func (x *segmentBackend) Resident() int { return x.heap }
