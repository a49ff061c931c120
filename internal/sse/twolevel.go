package sse

import (
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"slices"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// TwoLevel defaults.
const (
	DefaultInlineCap     = 16
	DefaultTwoLevelBlock = 64
)

// TwoLevel is the dictionary-plus-array construction of Cash et al.
// (NDSS'14, the paper's reference [5] for dynamic large-database SSE,
// there called "2lev"): each keyword owns one fixed-width dictionary
// cell, and posting lists that do not fit inline spill into a shuffled
// global array of encrypted blocks.
//
// Three tiers, by posting-list length n (C = InlineCap, B = BlockSize):
//
//	n <= C          ids inline in the dictionary cell
//	n <= C*B        cell holds pointers to id-blocks
//	n <= C*B*B      cell holds pointers to pointer-blocks
//
// The layout trades Basic's per-posting dictionary entries for one
// dictionary probe plus sequential (well, pseudorandomly scattered)
// block reads — the structure that makes SSE viable on disk-resident
// databases. Longer lists than C*B*B fail the build; pick parameters
// accordingly.
type TwoLevel struct {
	// InlineCap is C, the number of 8-byte slots in a dictionary cell.
	// Zero selects DefaultInlineCap. Must be at least 1.
	InlineCap int
	// BlockSize is B, the number of 8-byte items per array block. Zero
	// selects DefaultTwoLevelBlock. Must be at least 2.
	BlockSize int
}

// Name implements Scheme.
func (TwoLevel) Name() string { return "2lev" }

// Cell modes.
const (
	modeInline byte = 0
	modeMedium byte = 1
	modeLarge  byte = 2
)

func (s TwoLevel) params() (c, b int, err error) {
	c = s.InlineCap
	if c == 0 {
		c = DefaultInlineCap
	}
	b = s.BlockSize
	if b == 0 {
		b = DefaultTwoLevelBlock
	}
	if c < 1 {
		return 0, 0, fmt.Errorf("sse: 2lev inline capacity %d < 1", c)
	}
	if b < 2 {
		return 0, 0, fmt.Errorf("sse: 2lev block size %d < 2", b)
	}
	return c, b, nil
}

// Build implements Scheme. Payload width must be 8 (the construction
// packs 8-byte items); wider payloads belong in Basic/Packed/TSet.
func (s TwoLevel) Build(entries []Entry, width int, rnd *mrand.Rand, eng storage.Engine, suite prf.Suite) (Index, error) {
	capacity, blockSize, err := s.params()
	if err != nil {
		return nil, err
	}
	if width != 8 {
		return nil, fmt.Errorf("sse: 2lev requires 8-byte payloads, got %d", width)
	}
	if _, err := checkEntries(entries, width); err != nil {
		return nil, err
	}
	rnd = newRand(rnd)

	// First pass: count blocks so positions can be drawn as a random
	// permutation of the exact array size.
	totalBlocks := 0
	for _, e := range entries {
		n := len(e.Data) / 8
		if n <= capacity {
			continue
		}
		idBlocks := (n + blockSize - 1) / blockSize
		totalBlocks += idBlocks
		if idBlocks > capacity {
			ptrBlocks := (idBlocks + blockSize - 1) / blockSize
			if ptrBlocks > capacity {
				return nil, fmt.Errorf("sse: 2lev posting list of %d ids exceeds C*B*B = %d",
					n, capacity*blockSize*blockSize)
			}
			totalBlocks += ptrBlocks
		}
	}
	perm := rnd.Perm(totalBlocks)
	next := 0
	takeSlot := func() uint64 { v := perm[next]; next++; return uint64(v) }

	x := &twoLevelIndex{
		suite:     suite,
		inlineCap: capacity,
		blockSize: blockSize,
		blocks:    make([][]byte, totalBlocks),
	}
	cellLen := 1 + 4 + capacity*8 // mode, count, C slots
	blockLen := blockSize * 8
	array := make([]byte, totalBlocks*blockLen)
	for slot := range x.blocks {
		x.blocks[slot] = array[slot*blockLen : (slot+1)*blockLen : (slot+1)*blockLen]
	}

	// Plan: entry e's plaintext cell is cells[e*cellLen:], and its blocks
	// are the slots perm[taken[e]:taken[e+1]].
	cells := make([]byte, len(entries)*cellLen)
	taken := make([]int, len(entries)+1)
	var scratch, idSlots, ptrSlots []byte // shuffled payloads, big-endian slot pointers
	// fill copies items into dst and pads the rest with random bytes.
	fill := func(dst, items []byte) {
		copy(dst, items)
		for i := len(items); i < len(dst); i++ {
			dst[i] = byte(rnd.Intn(256))
		}
	}
	for e, entry := range entries {
		scratch = slices.Grow(scratch[:0], len(entry.Data))
		payloads := scratch[:len(entry.Data)]
		shuffleRun(payloads, entry.Data, 8, rnd)
		n := len(payloads) / 8
		cell := cells[e*cellLen : (e+1)*cellLen]
		binary.BigEndian.PutUint32(cell[1:5], uint32(n))

		switch {
		case n <= capacity:
			cell[0] = modeInline
			fill(cell[5:], payloads)
		default:
			// Spill ids into blocks.
			idSlots = idSlots[:0]
			for i := 0; i < len(payloads); i += blockLen {
				slot := takeSlot()
				fill(x.blocks[slot], payloads[i:min(i+blockLen, len(payloads))])
				idSlots = binary.BigEndian.AppendUint64(idSlots, slot)
			}
			if len(idSlots)/8 <= capacity {
				cell[0] = modeMedium
				fill(cell[5:], idSlots)
			} else {
				cell[0] = modeLarge
				ptrSlots = ptrSlots[:0]
				for i := 0; i < len(idSlots); i += blockLen {
					slot := takeSlot()
					fill(x.blocks[slot], idSlots[i:min(i+blockLen, len(idSlots))])
					ptrSlots = binary.BigEndian.AppendUint64(ptrSlots, slot)
				}
				fill(cell[5:], ptrSlots)
			}
		}
		taken[e+1] = next
		x.postings += n
	}

	// Seal: a keyword's cell sits at its label 0 as cell number 0, and
	// the block in slot j, which has no label, is cell number 1+j.
	labels, spares := make([][LabelSize]byte, len(entries)), labelSpares(suite, len(entries))
	sealEach(suite, len(entries), func(sl *stagSealer, e int) {
		sl.useCellKey(entries[e].Stag, sl.key(entries[e].Stag))
		sl.labels(labels[e:e+1], spares.of(e, e+1))
		sl.seal(0, cells[e*cellLen:(e+1)*cellLen], spares.at(e))
		for _, slot := range perm[taken[e]:taken[e+1]] {
			sl.seal(1+uint64(slot), x.blocks[slot], nil)
		}
	})

	// Place.
	cb := cellBuilder(eng, len(entries))
	for e := range labels {
		if err := cb.Put(labels[e][:], cells[e*cellLen:(e+1)*cellLen]); err != nil {
			return nil, errLabelCollision(err)
		}
	}
	sealed, err := cb.Seal()
	if err != nil {
		return nil, errLabelCollision(err)
	}
	x.cells = sealed
	return x, nil
}

type twoLevelIndex struct {
	suite     prf.Suite
	inlineCap int
	blockSize int
	postings  int
	// cells is the engine-backed keyword dictionary; blocks is the
	// positional spill array, addressed by slot number rather than label.
	cells  storage.Backend
	blocks [][]byte
}

func (x *twoLevelIndex) Width() int    { return 8 }
func (x *twoLevelIndex) Postings() int { return x.postings }

// Resident counts the spill array with the cells: a built index owns
// both, and an opened one serves both in place from its section.
func (x *twoLevelIndex) Resident() int {
	if r := x.cells.Resident(); r > 0 {
		return r + len(x.blocks)*x.blockSize*8
	}
	return 0
}

// BlockCount reports the array size; exposed for tests.
func (x *twoLevelIndex) BlockCount() int { return len(x.blocks) }

// Search probes each stag's dictionary cell at label 0 through the
// lockstep lanes; a walk ends at that one probe, hit or miss.
func (x *twoLevelIndex) Search(stags []Stag, data []byte, ends []int) ([]byte, []int, error) {
	return search(x.suite, x.cells, x, x.Width(), stags, data, ends)
}

func (x *twoLevelIndex) readCell(s *cellSearcher, _ uint64, cellCT []byte) (bool, error) {
	if cellLen := 1 + 4 + x.inlineCap*8; len(cellCT) != cellLen {
		return false, fmt.Errorf("%w: 2lev cell of %d bytes, want %d", ErrCorrupt, len(cellCT), cellLen)
	}
	s.cell = s.decrypt(s.cell[:0], 0, cellCT)
	mode := s.cell[0]
	n := int(binary.BigEndian.Uint32(s.cell[1:5]))
	slots := s.cell[5:]

	// readBlock appends the plaintext of array block slot to dst.
	readBlock := func(dst []byte, slot uint64) ([]byte, error) {
		if slot >= uint64(len(x.blocks)) {
			return nil, fmt.Errorf("%w: 2lev block pointer %d out of range", ErrCorrupt, slot)
		}
		return s.decryptCell(dst, 1+slot, x.blocks[slot], nil), nil
	}

	switch mode {
	case modeInline:
		if n > x.inlineCap {
			return false, fmt.Errorf("%w: 2lev inline cell count %d", ErrCorrupt, n)
		}
		s.out = append(s.out, slots[:n*8]...)
		return false, nil
	case modeMedium, modeLarge:
		idBlocks := (n + x.blockSize - 1) / x.blockSize
		idSlots := s.slots[:0]
		if mode == modeMedium {
			if idBlocks > x.inlineCap {
				return false, fmt.Errorf("%w: 2lev medium cell", ErrCorrupt)
			}
			for i := 0; i < idBlocks; i++ {
				idSlots = append(idSlots, binary.BigEndian.Uint64(slots[i*8:]))
			}
		} else {
			ptrBlocks := (idBlocks + x.blockSize - 1) / x.blockSize
			if ptrBlocks > x.inlineCap {
				return false, fmt.Errorf("%w: 2lev large cell", ErrCorrupt)
			}
			remaining := idBlocks
			for i := 0; i < ptrBlocks; i++ {
				ptrs, err := readBlock(s.block[:0], binary.BigEndian.Uint64(slots[i*8:]))
				if err != nil {
					return false, err
				}
				s.block = ptrs
				take := min(remaining, x.blockSize)
				for j := 0; j < take; j++ {
					idSlots = append(idSlots, binary.BigEndian.Uint64(ptrs[j*8:]))
				}
				remaining -= take
			}
		}
		s.slots = idSlots[:0]
		remaining := n
		for _, slot := range idSlots {
			take := min(remaining, x.blockSize)
			kept := len(s.out) + 8*take
			out, err := readBlock(s.out, slot)
			if err != nil {
				return false, err
			}
			s.out = out[:kept] // the block's ids, without its padding
			remaining -= take
		}
		return false, nil
	default:
		return false, fmt.Errorf("%w: 2lev cell mode %d", ErrCorrupt, mode)
	}
}

// Sizes is the paper's Fig. 5a accounting of the index — a tag(1)
// inlineCap(4) blockSize(4) postings(8) cellCount(8) header, label ||
// cell per keyword, blockCount(8), then the blocks, counted with the
// cells — not the length of any wire encoding.
func (x *twoLevelIndex) Sizes() Sizes {
	s := dictSizes(1+4+4+8+8+8, x.cells)
	s.Cells += len(x.blocks) * x.blockSize * 8
	return s
}
