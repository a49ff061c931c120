package sse

import (
	"encoding/binary"
	"fmt"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// Every construction serializes as a "section" — a small fixed header
// followed by 8-aligned, length-prefixed storage segments, each written
// as its dictionary sealed or loaded it (storage's segment format:
// version 3, label-window‖cell records at one stride, for every
// dictionary this build seals; files of versions 1 and 2, whose records
// hold the whole 16-byte label, still load and write back unchanged).
// Every variable-length part of a section is sliced in place:
// OpenSection builds indexes whose dictionaries answer queries directly
// over the serialized bytes, with zero per-record copies.
//
// Section layouts (integers big-endian, pad bytes zero):
//
//	basic:    tag(1) pad(3) width(4) | seg
//	packed:   tag(1) blockSize(1) pad(2) width(4) postings(8) | seg
//	tset:     tag(1) pad(3) width(4) salt(8) postings(8) buckets(8)
//	          capacity(4) pad(4) | seg
//	twolevel: tag(1) pad(3) inlineCap(4) blockSize(4) pad(4) postings(8)
//	          | cellSeg | blockCount(8) blocks(blockCount*blockSize*8)
//
// where "| seg" is a uint64 length prefix, the segment bytes, then zero
// padding to the next 8-byte boundary. Sections therefore always have
// 8-aligned total length, which keeps every segment 8-aligned inside the
// enclosing index container.

// MarshalSection serializes idx in the section format.
func MarshalSection(idx Index) ([]byte, error) {
	switch x := idx.(type) {
	case *basicIndex:
		return x.appendSection(nil), nil
	case *packedIndex:
		return x.appendSection(nil), nil
	case *tsetIndex:
		return x.appendSection(nil), nil
	case *twoLevelIndex:
		return x.appendSection(nil), nil
	default:
		return nil, fmt.Errorf("sse: cannot serialize index type %T as a section", idx)
	}
}

// OpenSection reconstructs a section in place; suite is the PRF suite
// the index was built with, which the enclosing container records. The
// returned index aliases data, which must stay valid and unmodified for
// the index's lifetime.
func OpenSection(data []byte, suite prf.Suite) (Index, error) {
	if len(data) == 0 {
		return nil, ErrCorrupt
	}
	switch data[0] {
	case tagBasic:
		return openBasicSection(data, suite)
	case tagPacked:
		return openPackedSection(data, suite)
	case tagTSet:
		return openTSetSection(data, suite)
	case tagTwoLevel:
		return openTwoLevelSection(data, suite)
	default:
		return nil, fmt.Errorf("sse: unknown section tag %d: %w", data[0], ErrCorrupt)
	}
}

// appendSeg appends a length-prefixed segment and pads to 8 bytes.
func appendSeg(out, seg []byte) []byte {
	out = binary.BigEndian.AppendUint64(out, uint64(len(seg)))
	out = append(out, seg...)
	for len(out)%8 != 0 {
		out = append(out, 0)
	}
	return out
}

// sectionReader is a bounds-checked, aliasing cursor over section bytes.
type sectionReader struct {
	data []byte
	off  int
}

// take returns the next n bytes without copying.
func (r *sectionReader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.data)-r.off {
		return nil, ErrCorrupt
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *sectionReader) uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// seg reads one length-prefixed segment and its trailing 8-alignment
// padding, returning the segment bytes in place.
func (r *sectionReader) seg() ([]byte, error) {
	n, err := r.uint64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, ErrCorrupt
	}
	seg, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	for r.off%8 != 0 {
		if r.off >= len(r.data) {
			return nil, ErrCorrupt
		}
		r.off++
	}
	return seg, nil
}

// done reports an error unless the section was consumed exactly.
func (r *sectionReader) done() error {
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing section bytes", ErrCorrupt, len(r.data)-r.off)
	}
	return nil
}

// openCells opens a label→cell segment in place and validates its shape
// against the construction's expectations.
func openCells(seg []byte, wantLen int) (storage.Backend, error) {
	cells, err := storage.OpenSegment(seg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if cells.KeyLen() != LabelSize {
		return nil, fmt.Errorf("%w: segment key length %d, want %d", ErrCorrupt, cells.KeyLen(), LabelSize)
	}
	if wantLen >= 0 && cells.Len() != wantLen {
		return nil, fmt.Errorf("%w: segment holds %d records, want %d", ErrCorrupt, cells.Len(), wantLen)
	}
	return cells, nil
}

// ----- basic -----

func (x *basicIndex) appendSection(out []byte) []byte {
	out = append(out, tagBasic, 0, 0, 0)
	out = binary.BigEndian.AppendUint32(out, uint32(x.width))
	return appendSeg(out, x.cells.Segment())
}

func openBasicSection(data []byte, suite prf.Suite) (Index, error) {
	r := sectionReader{data: data, off: 4}
	wb, err := r.take(4)
	if err != nil {
		return nil, ErrCorrupt
	}
	width := int(binary.BigEndian.Uint32(wb))
	if width <= 0 {
		return nil, ErrCorrupt
	}
	seg, err := r.seg()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	cells, err := openCells(seg, -1)
	if err != nil {
		return nil, err
	}
	x := &basicIndex{suite: suite, width: width, postings: cells.Len(), cells: cells}
	return x, nil
}

// ----- packed -----

func (x *packedIndex) appendSection(out []byte) []byte {
	out = append(out, tagPacked, byte(x.blockSize), 0, 0)
	out = binary.BigEndian.AppendUint32(out, uint32(x.width))
	out = binary.BigEndian.AppendUint64(out, uint64(x.postings))
	return appendSeg(out, x.cells.Segment())
}

func openPackedSection(data []byte, suite prf.Suite) (Index, error) {
	if len(data) < 8 {
		return nil, ErrCorrupt
	}
	blockSize := int(data[1])
	r := sectionReader{data: data, off: 4}
	wb, err := r.take(4)
	if err != nil {
		return nil, ErrCorrupt
	}
	width := int(binary.BigEndian.Uint32(wb))
	postings, err := r.uint64()
	if err != nil {
		return nil, err
	}
	if width <= 0 || blockSize < 1 {
		return nil, ErrCorrupt
	}
	seg, err := r.seg()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	cells, err := openCells(seg, -1)
	if err != nil {
		return nil, err
	}
	if postings > uint64(cells.Len())*uint64(blockSize) {
		return nil, fmt.Errorf("%w: %d postings exceed %d blocks of %d", ErrCorrupt, postings, cells.Len(), blockSize)
	}
	x := &packedIndex{suite: suite, width: width, blockSize: blockSize, postings: int(postings), cells: cells}
	return x, nil
}

// ----- tset -----

func (x *tsetIndex) appendSection(out []byte) []byte {
	out = append(out, tagTSet, 0, 0, 0)
	out = binary.BigEndian.AppendUint32(out, uint32(x.width))
	out = binary.BigEndian.AppendUint64(out, x.salt)
	out = binary.BigEndian.AppendUint64(out, uint64(x.postings))
	out = binary.BigEndian.AppendUint64(out, uint64(x.numBuckets))
	out = binary.BigEndian.AppendUint32(out, uint32(x.capacity))
	out = append(out, 0, 0, 0, 0)
	return appendSeg(out, x.lookup.Segment())
}

func openTSetSection(data []byte, suite prf.Suite) (Index, error) {
	r := sectionReader{data: data, off: 4}
	wb, err := r.take(4)
	if err != nil {
		return nil, ErrCorrupt
	}
	width := int(binary.BigEndian.Uint32(wb))
	salt, err := r.uint64()
	if err != nil {
		return nil, err
	}
	postings, err := r.uint64()
	if err != nil {
		return nil, err
	}
	buckets, err := r.uint64()
	if err != nil {
		return nil, err
	}
	cb, err := r.take(8) // capacity(4) + pad(4)
	if err != nil {
		return nil, err
	}
	capacity := int(binary.BigEndian.Uint32(cb))
	if width <= 0 || capacity < 1 {
		return nil, ErrCorrupt
	}
	// Bound the slot product by what the section could possibly hold
	// (a slot takes at least a byte) before multiplying, so it cannot
	// overflow.
	if buckets > uint64(len(data))/uint64(capacity) {
		return nil, ErrCorrupt
	}
	slots := buckets * uint64(capacity)
	seg, err := r.seg()
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	lookup, err := openCells(seg, int(slots))
	if err != nil {
		return nil, err
	}
	if postings > slots {
		// Every real posting occupies a slot, so a larger claim is a lie
		// (and would wrap the int stats below).
		return nil, fmt.Errorf("%w: %d postings exceed %d slots", ErrCorrupt, postings, slots)
	}
	x := &tsetIndex{
		suite:      suite,
		width:      width,
		postings:   int(postings),
		salt:       salt,
		capacity:   capacity,
		numBuckets: int(buckets),
		lookup:     lookup,
	}
	return x, nil
}

// ----- twolevel -----

func (x *twoLevelIndex) appendSection(out []byte) []byte {
	out = append(out, tagTwoLevel, 0, 0, 0)
	out = binary.BigEndian.AppendUint32(out, uint32(x.inlineCap))
	out = binary.BigEndian.AppendUint32(out, uint32(x.blockSize))
	out = append(out, 0, 0, 0, 0)
	out = binary.BigEndian.AppendUint64(out, uint64(x.postings))
	out = appendSeg(out, x.cells.Segment())
	out = binary.BigEndian.AppendUint64(out, uint64(len(x.blocks)))
	for _, b := range x.blocks {
		out = append(out, b...)
	}
	// blockLen = blockSize*8 is a multiple of 8, so out stays aligned.
	return out
}

func openTwoLevelSection(data []byte, suite prf.Suite) (Index, error) {
	r := sectionReader{data: data, off: 4}
	hb, err := r.take(12) // inlineCap(4) blockSize(4) pad(4)
	if err != nil {
		return nil, ErrCorrupt
	}
	x := &twoLevelIndex{
		suite:     suite,
		inlineCap: int(binary.BigEndian.Uint32(hb[0:4])),
		blockSize: int(binary.BigEndian.Uint32(hb[4:8])),
	}
	if x.inlineCap < 1 || x.blockSize < 2 {
		return nil, ErrCorrupt
	}
	postings, err := r.uint64()
	if err != nil {
		return nil, err
	}
	x.postings = int(postings)
	seg, err := r.seg()
	if err != nil {
		return nil, err
	}
	if x.cells, err = openCells(seg, -1); err != nil {
		return nil, err
	}
	blockCount, err := r.uint64()
	if err != nil {
		return nil, err
	}
	blockLen := uint64(x.blockSize * 8)
	if blockCount > uint64(len(r.data)-r.off)/blockLen {
		return nil, ErrCorrupt
	}
	raw, err := r.take(int(blockCount * blockLen))
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	// Postings live either inline (at most inlineCap per cell) or in the
	// spill blocks (at most blockSize ids each); a claim beyond that is a
	// lie and would wrap the int stats. All factors are bounded by the
	// section length, so the products cannot overflow.
	if postings > uint64(x.cells.Len())*uint64(x.inlineCap)+blockCount*uint64(x.blockSize) {
		return nil, fmt.Errorf("%w: %d postings exceed section capacity", ErrCorrupt, postings)
	}
	// Each block is a view into the section bytes.
	x.blocks = make([][]byte, blockCount)
	for i := range x.blocks {
		x.blocks[i] = raw[uint64(i)*blockLen : uint64(i+1)*blockLen : uint64(i+1)*blockLen]
	}
	return x, nil
}
