package sse

import (
	"bytes"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"strings"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// collidingEngine seals on the default engine, but its builders store
// the second label they are given as the first with its last byte
// flipped: two labels equal in every byte a segment v3 of two records
// keeps (the first nine) and different below them.
type collidingEngine struct{}

func (collidingEngine) Name() string { return "colliding" }

func (collidingEngine) NewBuilder(keyLen, capacityHint int) storage.Builder {
	return &collidingBuilder{Builder: storage.Sorted{}.NewBuilder(keyLen, capacityHint)}
}

type collidingBuilder struct {
	storage.Builder
	first []byte
	puts  int
}

func (b *collidingBuilder) Put(key, value []byte) error {
	switch b.puts++; b.puts {
	case 1:
		b.first = bytes.Clone(key)
	case 2:
		key = bytes.Clone(b.first)
		key[len(key)-1] ^= 1
	}
	return b.Builder.Put(key, value)
}

// isLabelCollision reports whether err is the build's label collision.
func isLabelCollision(err error) bool {
	return errors.Is(err, storage.ErrDuplicateKey) && strings.Contains(err.Error(), "label collision")
}

// TestLabelWindowCollisionRefused: a Basic build whose two labels agree
// on the stored window and differ below it fails at seal with
// errLabelCollision, as two equal 16-byte labels always did.
func TestLabelWindowCollisionRefused(t *testing.T) {
	entries := []Entry{idEntry(stagOf(t, "a"), []uint64{1}), idEntry(stagOf(t, "b"), []uint64{2})}
	if _, err := (Basic{}).Build(entries, 8, nil, collidingEngine{}, prf.SuiteBlockPad); !isLabelCollision(err) {
		t.Fatalf("basic build over colliding labels: %v", err)
	}
}

// scriptedSource is a math/rand source whose first outputs make
// rand.Intn(256) return the scripted bytes, in order, and which counts
// up after them.
type scriptedSource struct {
	script []byte
	n      int64
}

func (s *scriptedSource) Int63() int64 {
	s.n++
	if len(s.script) > 0 {
		b := s.script[0]
		s.script = s.script[1:]
		return int64(b) << 32 // Intn(256) is Int63()>>32 masked to a byte
	}
	return s.n << 20
}

func (s *scriptedSource) Seed(int64) {}

// TestTSetPaddingWindowCollisionRefused: a TSet of one posting in one
// bucket of two slots pads the other slot with a random label, the
// build's first draws. Scripted to agree with the real label on the
// stored window and differ below it, the build fails with
// errLabelCollision; differing inside the window, it seals.
func TestTSetPaddingWindowCollisionRefused(t *testing.T) {
	stag := stagOf(t, "k")
	label := cellLabel(prf.SuiteBlockPad, prf.Key(stag), 0)
	for _, c := range []struct {
		flip    int
		collide bool
	}{{15, true}, {3, false}} {
		pad := bytes.Clone(label[:])
		pad[c.flip] ^= 1
		rnd := mrand.New(&scriptedSource{script: pad})
		_, err := TSet{BucketCapacity: 2, Expansion: 1.5}.Build([]Entry{idEntry(stag, []uint64{7})}, 8, rnd, nil, prf.SuiteBlockPad)
		if c.collide != isLabelCollision(err) || !c.collide && err != nil {
			t.Errorf("padding label differing from the real one in byte %d: %v", c.flip, err)
		}
	}
}

// TestLabelFalseMatchBelowWindow: a probe that differs from a stored
// label only below the stored window finds that label's cell — the
// false match the window's width bounds at 2^-64 per probe for labels
// the owner did not choose — and one that differs inside it misses.
func TestLabelFalseMatchBelowWindow(t *testing.T) {
	stag := stagOf(t, "k")
	idx, err := Basic{}.Build([]Entry{idEntry(stag, []uint64{1, 2, 3})}, 8, nil, nil, prf.SuiteBlockPad)
	if err != nil {
		t.Fatal(err)
	}
	cells := idx.(*basicIndex).cells
	seg := cells.Segment()
	end := int(seg[24]/8) + int(seg[25]) // the stored window's end
	for i := range uint64(3) {
		label := cellLabel(prf.SuiteBlockPad, prf.Key(stag), i)
		cell, ok := cells.Get(label[:])
		if !ok {
			t.Fatalf("label %d not found", i)
		}
		below, inside := label, label
		below[LabelSize-1] ^= 1
		inside[end-1] ^= 1
		if got, ok := cells.Get(below[:]); !ok || !bytes.Equal(got, cell) {
			t.Errorf("label %d flipped below the window: %x, %v; want its cell", i, got, ok)
		}
		if _, ok := cells.Get(inside[:]); ok {
			t.Errorf("label %d flipped inside the window matched", i)
		}
	}
}

// TestSizesMatchSegments: each construction's Fig. 5(a) size is its
// header plus the record sections of its sealed segments, n × stride
// read off each segment's header, plus 2lev's array blocks: Labels is
// n times the stored label width, and TSet's Slack is its padding
// records' share. So is the size of the same section opened in place.
func TestSizesMatchSegments(t *testing.T) {
	db := map[string][]uint64{"a": {1}, "b": make([]uint64, 10), "c": make([]uint64, 40)}
	for i := range db["c"] {
		db["c"][i] = uint64(i)
	}
	for i := range db["b"] {
		db["b"][i] = uint64(100 + i)
	}
	for _, sch := range []Scheme{Basic{}, Packed{BlockSize: 4}, TSet{BucketCapacity: 64, Expansion: 1.5}, TwoLevel{InlineCap: 4, BlockSize: 4}} {
		built := buildSuiteIndex(t, sch, db, nil, prf.SuiteBlockPad)
		sec, err := MarshalSection(built)
		if err != nil {
			t.Fatal(err)
		}
		opened, err := OpenSection(sec, prf.SuiteBlockPad)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []Index{built, opened} {
			var cells storage.Backend
			blocks, header := 0, 0
			switch x := idx.(type) {
			case *basicIndex:
				cells, header = x.cells, 13
			case *packedIndex:
				cells, header = x.cells, 22
			case *tsetIndex:
				cells, header = x.lookup, 33
			case *twoLevelIndex:
				cells, header, blocks = x.cells, 33, len(x.blocks)*x.blockSize*8
			}
			seg := cells.Segment()
			n := int(binary.BigEndian.Uint64(seg[8:16]))
			kw, width := int(seg[25]), int(binary.BigEndian.Uint32(seg[28:32]))
			if binary.BigEndian.Uint16(seg[4:6]) != 3 || kw == 0 || kw >= LabelSize {
				t.Fatalf("%s: segment version %d storing %d label bytes", sch.Name(), binary.BigEndian.Uint16(seg[4:6]), kw)
			}
			s := idx.Sizes()
			if s.Header != header || s.Labels != n*kw || s.Labels+s.Cells != n*(kw+width)+blocks || s.Total() != idx.Sizes().Total() ||
				s.Dir != 4*((1<<seg[24])+1) {
				t.Errorf("%s: sizes %+v for %d records of %d+%d bytes, %d block bytes, %d directory bits", sch.Name(), s, n, kw, width, blocks, seg[24])
			}
			if x, ok := idx.(*tsetIndex); ok && s.Slack != (n-x.postings)*(kw+width) || !ok && s.Slack != 0 {
				t.Errorf("%s: slack %d", sch.Name(), s.Slack)
			}
		}
	}
}
