package sse

import (
	"fmt"
	mrand "math/rand"
	"slices"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// DefaultBlockSize is the number of postings packed per encrypted block.
const DefaultBlockSize = 8

// Packed is the Πpack variant of Cash et al. (NDSS'14): postings are
// grouped into blocks of BlockSize, each block encrypted as a single cell
// and padded to full length. Compared to Basic it trades padding waste in
// the last block of each keyword for one PRF evaluation and one dictionary
// probe per block instead of per posting.
type Packed struct {
	// BlockSize is the number of postings per block (1..255).
	// Zero selects DefaultBlockSize.
	BlockSize int
}

// Name implements Scheme.
func (Packed) Name() string { return "packed" }

func (s Packed) blockSize() (int, error) {
	b := s.BlockSize
	if b == 0 {
		b = DefaultBlockSize
	}
	if b < 1 || b > 255 {
		return 0, fmt.Errorf("sse: packed block size %d outside 1..255", b)
	}
	return b, nil
}

// Build implements Scheme.
func (s Packed) Build(entries []Entry, width int, rnd *mrand.Rand, eng storage.Engine, suite prf.Suite) (Index, error) {
	bs, err := s.blockSize()
	if err != nil {
		return nil, err
	}
	total, err := checkEntries(entries, width)
	if err != nil {
		return nil, err
	}
	rnd = newRand(rnd)
	blockLen := 1 + bs*width // count byte + padded payload area
	// Plan: block j of the build is cell j, plaintext until sealed.
	off := postingOffsets(entries, width, func(n int) int { return (n + bs - 1) / bs })
	blocks := off[len(entries)]
	cells := make([]byte, blocks*blockLen)
	var scratch []byte
	for e, entry := range entries {
		scratch = slices.Grow(scratch[:0], len(entry.Data))
		payloads := scratch[:len(entry.Data)]
		shuffleRun(payloads, entry.Data, width, rnd)
		for blk := 0; blk*bs*width < len(payloads); blk++ {
			chunk := payloads[blk*bs*width : min((blk+1)*bs*width, len(payloads))]
			plain := cells[(off[e]+blk)*blockLen : (off[e]+blk+1)*blockLen]
			plain[0] = byte(len(chunk) / width)
			copy(plain[1:], chunk)
			// Random padding in the unused tail: without it, trailing
			// zeros of the last block would leak posting-list length
			// modulo the block size to anyone holding the stag.
			for i := 1 + len(chunk); i < blockLen; i++ {
				plain[i] = byte(rnd.Intn(256))
			}
		}
	}
	sealed, err := sealDictionary(entries, off, cells, blockLen, eng, suite)
	if err != nil {
		return nil, err
	}
	return &packedIndex{suite: suite, width: width, blockSize: bs, postings: total, cells: sealed}, nil
}

type packedIndex struct {
	suite     prf.Suite
	width     int
	blockSize int
	postings  int
	cells     storage.Backend
}

func (x *packedIndex) Width() int    { return x.width }
func (x *packedIndex) Postings() int { return x.postings }
func (x *packedIndex) Resident() int { return x.cells.Resident() }

func (x *packedIndex) Search(stags []Stag, data []byte, ends []int) ([]byte, []int, error) {
	return search(x.suite, x.cells, x, x.Width(), stags, data, ends)
}

func (x *packedIndex) readCell(s *cellSearcher, b uint64, cell []byte) (bool, error) {
	if blockLen := 1 + x.blockSize*x.width; len(cell) != blockLen {
		return false, fmt.Errorf("%w: packed block of %d bytes, want %d", ErrCorrupt, len(cell), blockLen)
	}
	s.cell = s.decrypt(s.cell[:0], b, cell)
	n := int(s.cell[0])
	if n > x.blockSize {
		return false, fmt.Errorf("%w: packed block count %d > block size %d", ErrCorrupt, n, x.blockSize)
	}
	s.out = append(s.out, s.cell[1:1+n*x.width]...)
	return true, nil
}

// Sizes is the paper's Fig. 5a accounting of the index — a tag(1)
// width(4) blockSize(1) postings(8) blockCount(8) header, then label ||
// cell(1+blockSize*width) per block — not the length of any wire
// encoding.
func (x *packedIndex) Sizes() Sizes { return dictSizes(1+4+1+8+8, x.cells) }
