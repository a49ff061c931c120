package sse

import (
	"encoding/binary"
	"fmt"
	mrand "math/rand"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// Basic is the Πbas dictionary construction of Cash et al. (NDSS'14): each
// posting occupies its own cell, stored under the pseudorandom label
// F(stag, i) and encrypted with a stag-derived key. Search walks
// i = 0, 1, ... until the first miss.
//
// Storage is exactly one (label, cell) pair per posting; there is no
// padding, so the index size reveals the total number of postings (the L1
// leakage every scheme in the paper declares).
type Basic struct{}

// Name implements Scheme.
func (Basic) Name() string { return "basic" }

// Build implements Scheme.
func (Basic) Build(entries []Entry, width int, rnd *mrand.Rand, eng storage.Engine, suite prf.Suite) (Index, error) {
	total, err := checkEntries(entries, width)
	if err != nil {
		return nil, err
	}
	rnd = newRand(rnd)
	h := prf.GetHasherSuite(suite, prf.Key{}) // rekeyed per entry by deriveStagKeys
	defer prf.PutHasher(h)
	b := cellBuilder(eng, total)
	for _, e := range entries {
		keys := deriveStagKeys(suite, h, e.Stag)
		for i, p := range shuffled(e.Payloads, rnd) {
			lab := cellLabel(suite, keys.loc, uint64(i))
			if err := b.Put(lab[:], encryptCell(keys.enc, uint64(i), p)); err != nil {
				return nil, errLabelCollision(err)
			}
		}
	}
	cells, err := b.Seal()
	if err != nil {
		return nil, errLabelCollision(err)
	}
	idx := &basicIndex{suite: suite, width: width, postings: total, cells: cells}
	idx.size = idx.serializedSize()
	return idx, nil
}

type basicIndex struct {
	suite    prf.Suite
	width    int
	postings int
	size     int
	cells    storage.Backend
}

func (x *basicIndex) Width() int    { return x.width }
func (x *basicIndex) Postings() int { return x.postings }
func (x *basicIndex) Size() int     { return x.size }
func (x *basicIndex) Resident() int { return x.cells.Resident() }

func (x *basicIndex) Search(stag Stag) ([][]byte, error) {
	s := getCellSearcher(x.suite, stag)
	defer putCellSearcher(s)
	var out [][]byte
	for i := uint64(0); ; i++ {
		cell, ok := x.cells.Get(s.label(i))
		if !ok {
			return out, nil
		}
		if len(cell) != x.width {
			// Unreachable through the fixed-record v1 format; guards
			// crafted v2 segments with lying offset tables.
			return nil, fmt.Errorf("sse: corrupt basic cell (%d bytes, want %d)", len(cell), x.width)
		}
		out = append(out, s.decrypt(i, cell))
	}
}

// Wire format: tag(1) width(4) count(8) then count sorted records of
// label(16) || cell(width).
func (x *basicIndex) serializedSize() int {
	return 1 + 4 + 8 + x.cells.Len()*(LabelSize+x.width)
}

func (x *basicIndex) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, x.serializedSize())
	out = append(out, tagBasic)
	out = binary.BigEndian.AppendUint32(out, uint32(x.width))
	out = binary.BigEndian.AppendUint64(out, uint64(x.cells.Len()))
	return appendCells(out, x.cells), nil
}

func unmarshalBasic(data []byte, eng storage.Engine) (Index, error) {
	if len(data) < 13 {
		return nil, ErrCorrupt
	}
	width := int(binary.BigEndian.Uint32(data[1:5]))
	count := binary.BigEndian.Uint64(data[5:13])
	if width <= 0 {
		return nil, ErrCorrupt
	}
	rec := LabelSize + width
	body := data[13:]
	// Bound count before multiplying: a huge count must not wrap the
	// product past the length check into a panic below.
	if count > uint64(len(body))/uint64(rec) || uint64(len(body)) != count*uint64(rec) {
		return nil, ErrCorrupt
	}
	b := cellBuilder(eng, int(count))
	for i := uint64(0); i < count; i++ {
		off := i * uint64(rec)
		if err := b.Put(body[off:off+LabelSize], body[off+LabelSize:off+uint64(rec)]); err != nil {
			return nil, ErrCorrupt
		}
	}
	cells, err := b.Seal()
	if err != nil {
		return nil, ErrCorrupt
	}
	x := &basicIndex{width: width, postings: int(count), cells: cells}
	x.size = x.serializedSize()
	return x, nil
}
