package sse

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand"
	"slices"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/storage"
)

// padStag is the known-answer tests' stag: bytes 0, 1, …, 31.
func padStag() (s Stag) {
	for i := range s {
		s[i] = byte(i)
	}
	return s
}

// storedCell returns the cell the index holds at the stag's i-th label.
func storedCell(t *testing.T, cells storage.Backend, stag Stag, i uint64) []byte {
	t.Helper()
	l := prf.F(prf.Key(stag), 'l', i)
	cell, ok := cells.Get(l[:LabelSize])
	if !ok {
		t.Fatalf("no cell at label %d", i)
	}
	return cell
}

// TestPadKnownAnswer pins suite 3's cell format to its definition on
// one cell of each kind: an 8-byte basic cell is its payload XOR
// F(stag,'l',i)[16:24]; a 40-byte one (an SRC-i pair) continues its pad
// with F(k_cell,'p',i<<32) past the label's 16 spare bytes, where
// k_cell = F(stag,'e',0); and a 2lev array block in slot j, which has no
// label, is padded from F(k_cell,'p',(1+j)<<32|b) alone. The first
// cell's bytes are written out, so a change to F or to the rule fails
// here as well as against the formula.
func TestPadKnownAnswer(t *testing.T) {
	stag := padStag()
	kc := prf.F(prf.Key(stag), 'e', 0)

	// An 8-byte cell: the payload XOR the label's spare half, nothing else.
	idx, err := Basic{}.Build([]Entry{idEntry(stag, []uint64{0x0102030405060708})}, 8, mrand.New(mrand.NewSource(1)), nil, prf.SuiteBlockPad)
	if err != nil {
		t.Fatal(err)
	}
	cell := storedCell(t, idx.(*basicIndex).cells, stag, 0)
	l0 := prf.F(prf.Key(stag), 'l', 0)
	if want := xorBytes(binary.BigEndian.AppendUint64(nil, 0x0102030405060708), l0[LabelSize:LabelSize+8]); !bytes.Equal(cell, want) {
		t.Fatalf("8-byte cell %x, want payload XOR F(stag,'l',0)[16:24] = %x", cell, want)
	}
	if got, want := hex.EncodeToString(cell), "51cff0c34bba626d"; got != want {
		t.Fatalf("8-byte cell %s, want the recorded %s", got, want)
	}

	// 40-byte cells: three of them, so cells 1 and 2 pin the counter.
	var wide []byte
	for i := range 3 {
		wide = append(wide, bytes.Repeat([]byte{byte(0xA0 + i)}, 40)...)
	}
	idx, err = Basic{}.Build([]Entry{{Stag: stag, Data: wide}}, 40, mrand.New(mrand.NewSource(1)), nil, prf.SuiteBlockPad)
	if err != nil {
		t.Fatal(err)
	}
	var found [][]byte
	for i := range uint64(len(wide) / 40) {
		li := prf.F(prf.Key(stag), 'l', i)
		p := prf.F(kc, 'p', i<<32)
		pad := append(slices.Clone(li[LabelSize:]), p[:24]...)
		found = append(found, xorBytes(storedCell(t, idx.(*basicIndex).cells, stag, i), pad))
	}
	slices.SortFunc(found, bytes.Compare)
	if !bytes.Equal(slices.Concat(found...), wide) {
		t.Fatalf("40-byte cells decrypt by the rule to %x, want the payloads", found)
	}

	// 2lev: five ids in blocks of two spill into three array blocks.
	ids := []uint64{11, 22, 33, 44, 55}
	idx, err = TwoLevel{InlineCap: 4, BlockSize: 2}.Build([]Entry{idEntry(stag, ids)}, 8, mrand.New(mrand.NewSource(1)), nil, prf.SuiteBlockPad)
	if err != nil {
		t.Fatal(err)
	}
	x := idx.(*twoLevelIndex)
	ct := storedCell(t, x.cells, stag, 0)
	p0 := prf.F(kc, 'p', 0)
	dict := xorBytes(ct, append(slices.Clone(l0[LabelSize:]), p0[:len(ct)-LabelSize]...))
	if dict[0] != modeMedium || binary.BigEndian.Uint32(dict[1:5]) != uint32(len(ids)) {
		t.Fatalf("2lev cell decrypts by the rule to mode %d count %d, want mode %d count %d",
			dict[0], binary.BigEndian.Uint32(dict[1:5]), modeMedium, len(ids))
	}
	var got []uint64
	for b := range 3 {
		slot := binary.BigEndian.Uint64(dict[5+8*b:])
		pad := prf.F(kc, 'p', (1+slot)<<32)
		block := xorBytes(x.blocks[slot], pad[:len(x.blocks[slot])])
		for k := 0; k < 2 && len(got) < len(ids); k++ {
			got = append(got, binary.BigEndian.Uint64(block[8*k:]))
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, ids) {
		t.Fatalf("2lev blocks decrypt by the rule to %v, want %v", got, ids)
	}
}

// TestSearchHitAllocatesNothing: under suite 3 a stag whose probe hits
// costs a search no allocation — its cell's pad is the label output the
// step computed anyway — so a request whose stags all hit allocates what
// one whose stags all miss does, whatever the number of stags, once the
// caller's data and ends have grown to the answer. Under suite 2 each
// hit still schedules one AES key: that request costs one allocation
// more per stag.
func TestSearchHitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	rnd := mrand.New(mrand.NewSource(71))
	const lists = 512
	entries := make([]Entry, lists)
	for i := range entries {
		var stag Stag
		rnd.Read(stag[:])
		entries[i] = idEntry(stag, []uint64{uint64(i)})
	}
	for _, suite := range []prf.Suite{prf.SuiteBlockPad, prf.SuiteBlock} {
		perHit := 0.0
		if suite == prf.SuiteBlock {
			perHit = 1
		}
		for _, sch := range []Scheme{Basic{}, TSet{BucketCapacity: 64, Expansion: 1.5}} {
			idx, err := sch.Build(entries, 8, mrand.New(mrand.NewSource(72)), nil, suite)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 32} {
				hit, miss := make([]Stag, n), make([]Stag, n)
				for i := range n {
					hit[i] = entries[i].Stag
					rnd.Read(miss[i][:])
				}
				var data []byte
				var ends []int
				allocs := func(stags []Stag, wantItems int) float64 {
					search := func() {
						if data, ends, err = idx.Search(stags, data[:0], ends[:0]); err != nil || len(ends) != n {
							t.Fatalf("%d groups, err %v", len(ends), err)
						}
						if ends[n-1] != wantItems || len(data) != 8*wantItems {
							t.Fatalf("%d items in %d bytes, want %d", ends[n-1], len(data), wantItems)
						}
					}
					search() // warm the lane set and grow data and ends
					return testing.AllocsPerRun(200, search)
				}
				h, m := allocs(hit, n), allocs(miss, 0)
				t.Logf("%v/%s/%d stags: %v allocs all hit, %v all miss", suite, sch.Name(), n, h, m)
				if want := m + perHit*float64(n); h != want {
					t.Errorf("%v/%s/%d stags: %v allocs when every stag hits, %v when every stag misses; want %v",
						suite, sch.Name(), n, h, m, want)
				}
			}
		}
	}
}
