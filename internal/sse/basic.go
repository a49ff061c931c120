package sse

import (
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
	// Plan: posting i of the build is cell i, plaintext until sealed.
	off := postingOffsets(entries, width, func(n int) int { return n })
	cells := make([]byte, total*width)
	for e, entry := range entries {
		shuffleRun(cells[off[e]*width:off[e+1]*width], entry.Data, width, rnd)
	}
	sealed, err := sealDictionary(entries, off, cells, width, eng, suite)
	if err != nil {
		return nil, err
	}
	return &basicIndex{suite: suite, width: width, postings: total, cells: sealed}, nil
}

type basicIndex struct {
	suite    prf.Suite
	width    int
	postings int
	cells    storage.Backend
}

func (x *basicIndex) Width() int    { return x.width }
func (x *basicIndex) Postings() int { return x.postings }
func (x *basicIndex) Resident() int { return x.cells.Resident() }

func (x *basicIndex) Search(stags []Stag, data []byte, ends []int) ([]byte, []int, error) {
	return search(x.suite, x.cells, x, x.Width(), stags, data, ends)
}

func (x *basicIndex) readCell(s *cellSearcher, ctr uint64, cell []byte) (bool, error) {
	if len(cell) != x.width {
		// Guards crafted segments with lying offset tables.
		return false, fmt.Errorf("%w: basic cell of %d bytes, want %d", ErrCorrupt, len(cell), x.width)
	}
	s.out = s.decrypt(s.out, ctr, cell)
	return true, nil
}

// Sizes is the paper's Fig. 5a accounting of the index — a tag(1)
// width(4) count(8) header, then label || cell(width) per posting — not
// the length of any wire encoding.
func (x *basicIndex) Sizes() Sizes { return dictSizes(1+4+8, x.cells) }
