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
// Get and Iterate by binary search directly over the raw bytes. It is
// the one record layout: a builder seals its records into it in memory,
// and a loaded index serves its segments in place (OpenSegment), with
// zero per-record copies between the blob or file and the query path.
//
// Layout (all integers big-endian):
//
//	header (48 bytes):
//	  [0:4)   magic "RSG1"
//	  [4:6)   format version: 3 for a pseudorandom space stored at a
//	          truncated key width, else 2 if every value has one width,
//	          else 1
//	  [6:8)   key length in bytes: the length of every probe
//	  [8:16)  record count n
//	  [16:24) value bytes in all
//	  [24]    radix directory bits (0 = no directory)
//	  [25]    version 3: s, the key bytes each record stores; else zero
//	  [26:28) reserved, zero
//	  [28:32) versions 2 and 3: the value width; version 1: zero
//	  [32:40) total segment length, footer included
//	  [40:44) CRC-32C of header bytes [0:40)
//	  [44:48) reserved, zero
//	version 2 and 3 body (starts at offset 48):
//	  records  n key‖value records at one stride, keys strictly
//	           ascending; padded to 4. Version 3 stores of each key only
//	           the s-byte window [dirBits/8, dirBits/8+s): the bytes
//	           above it are the record's directory bucket, and the bytes
//	           below it are dropped
//	  dir      ((1<<dirBits)+1) uint32 entries, present iff dirBits > 0;
//	           about four records per bucket
//	version 1 body (starts 8-aligned at offset 48):
//	  keys     n*keyLen bytes, strictly ascending; padded to 8
//	  offsets  (n+1) uint64 value-heap boundaries
//	  values   value heap; padded to 4
//	  dir      ((1<<dirBits)+1) uint32 entries, present iff dirBits > 0;
//	           about one record per bucket
//	footer:
//	  CRC-32C of the body
//
// Sealing writes version 3 for a uniform-width space whose keys are
// longer than the window that tells them apart (every SSE dictionary),
// version 2 for any other uniform-width space and version 1 only for
// mixed widths; every version loads. A version 3 probe compares its window with the
// records of its bucket, so a key that is not stored false-matches a
// record that agrees with it on the window: Seal picks s so that this
// happens with probability at most 2^-64 per probe (keyWindow), and
// refuses two keys that agree on the window.
// The header checksum makes truncation and header bit-flips an O(1)
// rejection; the body checksum (verified once at open, at memory
// bandwidth) catches everything else, so the serve path can skip
// per-record validation. Get and Iterate still bounds-check the offsets
// and directory entries they dereference, so even an adversarially
// crafted, checksum-valid segment cannot read outside the mapped region.

// ErrCorruptSegment is returned when segment bytes fail to parse or
// checksum.
var ErrCorruptSegment = errors.New("storage: corrupt segment")

const (
	segMagic      = "RSG1"
	segHeaderSize = 48
	segFooterSize = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func crc32c(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// pad8 and pad4 round a length up to the next alignment boundary.
func pad8(n uint64) uint64 { return (n + 7) &^ 7 }
func pad4(n uint64) uint64 { return (n + 3) &^ 3 }

// segmentLayout holds the section offsets of a segment; offsOff and
// valsOff are version 1's alone.
type segmentLayout struct {
	offsOff, valsOff, dirOff, footerOff, total uint64
}

// layoutFor computes the section offsets of a segment with the given
// shape, keyLen the bytes each record stores of its key. All arithmetic
// is overflow-checked by the caller (OpenSegment) before this runs on
// untrusted values.
func layoutFor(version uint16, keyLen, n, valsLen uint64, dirBits uint8) segmentLayout {
	var l segmentLayout
	end := segHeaderSize + n*keyLen + valsLen
	if version == 1 {
		l.offsOff = pad8(segHeaderSize + n*keyLen)
		l.valsOff = l.offsOff + (n+1)*8
		end = l.valsOff + valsLen
	}
	l.dirOff = pad4(end)
	l.footerOff = l.dirOff
	if dirBits > 0 {
		l.footerOff += ((1 << dirBits) + 1) * 4
	}
	l.total = l.footerOff + segFooterSize
	return l
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
	if crc32c(data[0:40]) != binary.BigEndian.Uint32(data[40:44]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorruptSegment)
	}
	version := binary.BigEndian.Uint16(data[4:6])
	if version < 1 || version > 3 {
		return nil, fmt.Errorf("%w: unsupported segment version %d", ErrCorruptSegment, version)
	}
	keyLen := uint64(binary.BigEndian.Uint16(data[6:8]))
	n := binary.BigEndian.Uint64(data[8:16])
	valsLen := binary.BigEndian.Uint64(data[16:24])
	dirBits := data[24]
	width := uint64(binary.BigEndian.Uint32(data[28:32]))
	total := binary.BigEndian.Uint64(data[32:40])
	if keyLen == 0 || dirBits > maxDirBits || (n == 0 && dirBits != 0) {
		return nil, fmt.Errorf("%w: bad shape", ErrCorruptSegment)
	}
	// Version 3 stores an s-byte window of each key, starting below the
	// directory's whole bytes: at least 8 bytes, so every compare starts
	// with a full 8-byte prefix, and fewer than the key's, inside it.
	kw, koff := keyLen, uint64(0)
	if s := uint64(data[25]); version == 3 {
		kw, koff = s, uint64(dirBits/8)
		if s < 8 || s >= keyLen || koff+s > keyLen {
			return nil, fmt.Errorf("%w: stored key width %d of %d-byte keys", ErrCorruptSegment, s, keyLen)
		}
	} else if s != 0 {
		return nil, fmt.Errorf("%w: stored key width %d in a version %d segment", ErrCorruptSegment, s, version)
	}
	// The pad after the header checksum is the only region neither CRC
	// covers; require it zero so every byte of the file is pinned down.
	if data[44] != 0 || data[45] != 0 || data[46] != 0 || data[47] != 0 {
		return nil, fmt.Errorf("%w: nonzero header padding", ErrCorruptSegment)
	}
	// Bound every factor against the real input size before computing the
	// layout, so the multiplications below cannot overflow.
	avail := uint64(len(data))
	if n > avail/kw || valsLen > avail || (version == 1 && n+1 > avail/8) ||
		(version != 1 && (width > 0 && n > avail/width || valsLen != n*width)) {
		return nil, fmt.Errorf("%w: counts do not fit the input", ErrCorruptSegment)
	}
	l := layoutFor(version, kw, n, valsLen, dirBits)
	if l.total != total || total != avail {
		return nil, fmt.Errorf("%w: length %d does not match declared layout %d", ErrCorruptSegment, avail, l.total)
	}
	if crc32c(data[segHeaderSize:l.footerOff]) != binary.BigEndian.Uint32(data[l.footerOff:]) {
		return nil, fmt.Errorf("%w: body checksum mismatch", ErrCorruptSegment)
	}
	x := &segmentBackend{
		keyLen:  int(keyLen),
		kw:      int(kw),
		koff:    int(koff),
		stride:  int(kw + width),
		n:       int(n),
		recs:    data[segHeaderSize : segHeaderSize+n*kw+valsLen],
		dirBits: uint(dirBits),
		dir:     data[l.dirOff:l.footerOff],
		seg:     data,
	}
	if version == 1 {
		x.stride = int(keyLen)
		x.recs = data[segHeaderSize : segHeaderSize+n*keyLen]
		x.offs = data[l.offsOff:l.valsOff]
		x.vals = data[l.valsOff : l.valsOff+valsLen]
	}
	return x, nil
}

// segmentBackend serves queries straight off segment bytes: records,
// offsets, values and the radix directory are all views into the
// underlying buffer — one the Sorted builder sealed, a blob, or a
// memory-mapped file. It is the Backend of both the Sorted and the Disk
// engine.
type segmentBackend struct {
	keyLen  int // the length of every probe
	kw      int // bytes each record stores of its key: keyLen, or version 3's s
	koff    int // where the stored bytes start in a key: dirBits/8 under version 3, else 0
	stride  int // bytes from one key in recs to the next
	n       int
	recs    []byte // versions 2 and 3: n key‖value records; version 1: n keys
	offs    []byte // version 1 only: (n+1) big-endian uint64
	vals    []byte // version 1 only: the value heap
	dirBits uint
	dir     []byte // ((1<<dirBits)+1) big-endian uint32
	seg     []byte // the whole segment
	heap    int    // bytes of heap the backend owns (set when it holds the only reference to the buffer)
}

// value returns record i's value with no spare capacity, so an append
// by the caller copies instead of writing over the next record (or
// faulting on a read-only mapping). Version 1 offsets are re-checked:
// the checksum makes bad offsets unreachable by accident, but a crafted
// segment must degrade to a miss, never an out-of-range slice.
func (x *segmentBackend) value(i int) ([]byte, bool) {
	if x.offs == nil {
		end := (i + 1) * x.stride
		return x.recs[i*x.stride+x.kw : end : end], true
	}
	lo := binary.BigEndian.Uint64(x.offs[i*8:])
	hi := binary.BigEndian.Uint64(x.offs[(i+1)*8:])
	if lo > hi || hi > uint64(len(x.vals)) {
		return nil, false
	}
	return x.vals[lo:hi:hi], true
}

func (x *segmentBackend) Get(key []byte) ([]byte, bool) {
	if len(key) != x.keyLen {
		return nil, false
	}
	lo, hi := x.bucket(loadPrefix(key))
	return x.search(key, loadPrefix(key[x.koff:]), lo, hi)
}

// search binary-searches records [lo, hi) for key, the stored bytes of
// which start with the 8-byte prefix kp.
func (x *segmentBackend) search(key []byte, kp uint64, lo, hi int) ([]byte, bool) {
	kw, stride := x.kw, x.stride
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		rec := x.recs[mid*stride : mid*stride+stride]
		mk := rec[:kw]
		// Compare the 8-byte prefixes as integers; fall back to the tail
		// bytes only on a prefix tie.
		c := 0
		switch mp := loadPrefix(mk); {
		case mp < kp:
			c = -1
		case mp > kp:
			c = 1
		case kw > 8:
			c = bytes.Compare(mk[8:], key[x.koff+8:x.koff+kw])
		}
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		case x.offs == nil:
			// The value shares the line the key was just read from.
			return rec[kw:stride:stride], true
		default:
			return x.value(mid)
		}
	}
	return nil, false
}

// getManyLanes is how many keys GetMany probes side by side.
const getManyLanes = 16

// GetMany is group prefetching (Chen et al., ICDE'04; Kocberber et al.,
// VLDB'15) over up to getManyLanes keys at a time: it reads every key's
// directory entry, then takes every key's first binary-search step,
// then finishes each search in turn. Each of the first two passes is
// one load per key that no other key's load waits for, so their cache
// misses are in flight together; the searches that finish run within
// the bucket lines the second pass brought in; a lone key is a Get. The
// answers are those of one Get per key.
func (x *segmentBackend) GetMany(keys, vals [][]byte) {
	if len(keys) == 1 {
		// One key has no other key's misses to overlap with.
		GetEach(x, keys, vals)
		return
	}
	for len(keys) > getManyLanes {
		x.getMany(keys[:getManyLanes], vals[:getManyLanes])
		keys, vals = keys[getManyLanes:], vals[getManyLanes:]
	}
	x.getMany(keys, vals)
}

func (x *segmentBackend) getMany(keys, vals [][]byte) {
	var kp [getManyLanes]uint64
	var lo, hi [getManyLanes]int
	for j, key := range keys {
		if len(key) == x.keyLen {
			kp[j] = loadPrefix(key)
			lo[j], hi[j] = x.bucket(kp[j])
			if x.koff > 0 {
				kp[j] = loadPrefix(key[x.koff:])
			}
		}
	}
	for j := range keys {
		if l, h := lo[j], hi[j]; l < h {
			mid := int(uint(l+h) >> 1)
			// Step past a record whose prefix is below the key's, or
			// down to it otherwise: a tie stays in the range for search.
			if loadPrefix(x.recs[mid*x.stride:mid*x.stride+x.kw]) < kp[j] {
				l = mid + 1
			} else {
				h = mid + 1
			}
			lo[j], hi[j] = l, h
		}
	}
	for j, key := range keys {
		vals[j] = nil
		if v, ok := x.search(key, kp[j], lo[j], hi[j]); ok {
			if v == nil {
				v = present
			}
			vals[j] = v
		}
	}
}

// bucket returns the record range the radix directory assigns to a key
// with prefix kp: all records when there is no directory. An untrusted
// bucket end is clamped to the record range; a start beyond it then
// ends the search at once.
func (x *segmentBackend) bucket(kp uint64) (lo, hi int) {
	if x.dirBits == 0 {
		return 0, x.n
	}
	d := x.dir[(kp>>(64-x.dirBits))*4:]
	return int(binary.BigEndian.Uint32(d)), min(int(binary.BigEndian.Uint32(d[4:])), x.n)
}

func (x *segmentBackend) Len() int    { return x.n }
func (x *segmentBackend) KeyLen() int { return x.keyLen }

func (x *segmentBackend) Iterate(fn func(key, value []byte) bool) {
	for i := 0; i < x.n; i++ {
		v, ok := x.value(i)
		if !ok || !fn(x.recs[i*x.stride:i*x.stride+x.kw], v) {
			return
		}
	}
}

// Resident reports zero for segments opened over caller-owned buffers
// (blobs, memory-mapped files) — the buffer is accounted for by whoever
// opened it — and the full encoding size for segments a builder sealed
// in memory, where the backend holds the only reference.
func (x *segmentBackend) Resident() int { return x.heap }

func (x *segmentBackend) Segment() []byte { return x.seg }

func (x *segmentBackend) Layout() Layout {
	return Layout{
		KeyBytes:   x.n * x.kw,
		ValueBytes: len(x.recs) - x.n*x.kw + len(x.vals),
		DirBytes:   len(x.dir),
	}
}
