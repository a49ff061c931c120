package sse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	mrand "math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// namedEngine is a storage engine under the name that selects it.
type namedEngine struct {
	name string
	eng  storage.Engine
}

// namedEngines are what the per-engine subtests run on: each engine
// under its name, and "map", the deprecated alias that selects Sorted.
func namedEngines(t testing.TB) []namedEngine {
	alias, err := storage.ByName("map")
	if err != nil {
		t.Fatal(err)
	}
	out := []namedEngine{{"map", alias}}
	for _, e := range storage.Engines() {
		out = append(out, namedEngine{e.Name(), e})
	}
	return out
}

// testSchemes returns every construction with test-friendly parameters.
func testSchemes() []Scheme {
	return []Scheme{
		Basic{},
		Packed{BlockSize: 4},
		TSet{BucketCapacity: 64, Expansion: 1.2},
	}
}

func stagOf(t testing.TB, kw string) Stag {
	t.Helper()
	k, err := prf.KeyFromBytes(bytes.Repeat([]byte{42}, prf.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return Stag(prf.EvalString(k, kw))
}

// idEntry is an entry whose payloads are ids, 8 bytes big-endian each.
func idEntry(stag Stag, ids []uint64) Entry {
	data := make([]byte, 0, 8*len(ids))
	for _, id := range ids {
		data = binary.BigEndian.AppendUint64(data, id)
	}
	return Entry{Stag: stag, Data: data}
}

// buildTestIndex builds an index over a deterministic keyword→ids map on
// the default storage engine.
func buildTestIndex(t testing.TB, s Scheme, db map[string][]uint64) Index {
	t.Helper()
	return buildTestIndexOn(t, s, db, nil)
}

// buildTestIndexOn builds the same index on an explicit storage engine.
func buildTestIndexOn(t testing.TB, s Scheme, db map[string][]uint64, eng storage.Engine) Index {
	t.Helper()
	return buildSuiteIndex(t, s, db, eng, prf.SuiteSHA512)
}

// buildSuiteIndex builds the index under an explicit PRF suite. Entries
// are built in sorted keyword order so repeated builds from the same
// seed are bit-identical (map iteration order must not leak in).
func buildSuiteIndex(t testing.TB, s Scheme, db map[string][]uint64, eng storage.Engine, suite prf.Suite) Index {
	t.Helper()
	kws := make([]string, 0, len(db))
	for kw := range db {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	entries := make([]Entry, 0, len(db))
	for _, kw := range kws {
		entries = append(entries, idEntry(stagOf(t, kw), db[kw]))
	}
	idx, err := s.Build(entries, 8, mrand.New(mrand.NewSource(1)), eng, suite)
	if err != nil {
		t.Fatalf("%s: Build: %v", s.Name(), err)
	}
	return idx
}

func searchIDs(t testing.TB, idx Index, kw string) []uint64 {
	t.Helper()
	payloads, err := searchOne(idx, stagOf(t, kw))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(payloads))
	for i, p := range payloads {
		out[i] = binary.BigEndian.Uint64(p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedCopy(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundtripAllSchemes(t *testing.T) {
	db := map[string][]uint64{
		"alpha": {1, 2, 3},
		"beta":  {10},
		"gamma": {100, 200, 300, 400, 500, 600, 700, 800, 900},
		"delta": {7, 7, 7}, // duplicate ids are preserved verbatim
	}
	for _, s := range testSchemes() {
		for _, ne := range namedEngines(t) {
			t.Run(s.Name()+"/"+ne.name, func(t *testing.T) {
				idx := buildTestIndexOn(t, s, db, ne.eng)
				for kw, ids := range db {
					got := searchIDs(t, idx, kw)
					if !equalIDs(got, sortedCopy(ids)) {
						t.Errorf("Search(%q) = %v, want %v", kw, got, ids)
					}
				}
				if got := searchIDs(t, idx, "absent"); len(got) != 0 {
					t.Errorf("absent keyword returned %v", got)
				}
				if idx.Postings() != 16 {
					t.Errorf("Postings = %d, want 16", idx.Postings())
				}
				if idx.Width() != 8 {
					t.Errorf("Width = %d, want 8", idx.Width())
				}
			})
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	for _, s := range testSchemes() {
		idx, err := s.Build(nil, 8, mrand.New(mrand.NewSource(2)), nil, prf.SuiteSHA512)
		if err != nil {
			t.Fatalf("%s: empty build: %v", s.Name(), err)
		}
		got, err := searchOne(idx, stagOf(t, "anything"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("%s: empty index returned results", s.Name())
		}
	}
}

func TestLargePostingList(t *testing.T) {
	ids := make([]uint64, 3000)
	for i := range ids {
		ids[i] = uint64(i) * 3
	}
	db := map[string][]uint64{"big": ids}
	for _, s := range testSchemes() {
		t.Run(s.Name(), func(t *testing.T) {
			idx := buildTestIndex(t, s, db)
			got := searchIDs(t, idx, "big")
			if !equalIDs(got, sortedCopy(ids)) {
				t.Errorf("big posting list corrupted: got %d ids", len(got))
			}
		})
	}
}

func TestShuffleHidesInsertionOrder(t *testing.T) {
	// With a deterministic source, the stored order must differ from the
	// insertion order for a long list (probability of identity ~ 1/100!).
	ids := make([]uint64, 100)
	for i := range ids {
		ids[i] = uint64(i)
	}
	idx := buildTestIndex(t, Basic{}, map[string][]uint64{"k": ids})
	payloads, err := searchOne(idx, stagOf(t, "k"))
	if err != nil {
		t.Fatal(err)
	}
	inOrder := true
	for i, p := range payloads {
		if binary.BigEndian.Uint64(p) != uint64(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("posting list retained insertion order; shuffle missing")
	}
}

func TestWidthValidation(t *testing.T) {
	entries := []Entry{{Stag: stagOf(t, "w"), Data: []byte{1, 2, 3}}}
	for _, s := range testSchemes() {
		if _, err := s.Build(entries, 8, nil, nil, prf.SuiteSHA512); err == nil {
			t.Errorf("%s: mismatched payload width accepted", s.Name())
		}
		if _, err := s.Build(nil, 0, nil, nil, prf.SuiteSHA512); err == nil {
			t.Errorf("%s: zero width accepted", s.Name())
		}
	}
}

func TestDuplicateStagRejected(t *testing.T) {
	s := stagOf(t, "dup")
	entries := []Entry{idEntry(s, []uint64{1}), idEntry(s, []uint64{2})}
	for _, sch := range testSchemes() {
		if _, err := sch.Build(entries, 8, nil, nil, prf.SuiteSHA512); err == nil {
			t.Errorf("%s: duplicate stag accepted", sch.Name())
		}
	}
}

// TestMarshalRoundtripAllSchemes: a construction built under any suite
// on any engine marshals to the same section bytes, and every engine
// opens them back to an index with the built one's shape and Fig. 5a
// accounting that answers every keyword and re-marshals byte for byte.
func TestMarshalRoundtripAllSchemes(t *testing.T) {
	db := map[string][]uint64{
		"one": {1, 11, 111},
		"two": {2, 22},
		"six": {6},
	}
	defer ResetKernelCache()
	for _, s := range testSchemes() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, suite := range testSuites {
				idx := buildSuiteIndex(t, s, db, nil, suite)
				sec, err := MarshalSection(idx)
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range storage.Engines() {
					other, err := MarshalSection(buildSuiteIndex(t, s, db, eng, suite))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sec, other) {
						t.Errorf("%v: built on %s, the section differs", suite, eng.Name())
					}
				}
				back, err := OpenSection(sec, suite)
				if err != nil {
					t.Fatal(err)
				}
				if back.Postings() != idx.Postings() || back.Width() != idx.Width() || back.Sizes().Total() != idx.Sizes().Total() {
					t.Errorf("%v: postings/width/size %d/%d/%d after the roundtrip, built %d/%d/%d", suite,
						back.Postings(), back.Width(), back.Sizes().Total(), idx.Postings(), idx.Width(), idx.Sizes().Total())
				}
				for kw, ids := range db {
					if got := searchIDs(t, back, kw); !equalIDs(got, sortedCopy(ids)) {
						t.Errorf("%v: after roundtrip, Search(%q) = %v", suite, kw, got)
					}
				}
				again, err := MarshalSection(back)
				if err != nil || !bytes.Equal(again, sec) {
					t.Errorf("%v: re-marshal differs (err %v)", suite, err)
				}
			}
		})
	}
}

// TestUnmarshalRejectsGarbage: OpenSection refuses malformed and lying
// sections with an error, never a panic or an allocation sized by a
// lying field.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	section := func(s Scheme) []byte {
		sec, err := MarshalSection(buildTestIndex(t, s, map[string][]uint64{"k": {1, 2}}))
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}
	put := func(sec []byte, off int, v uint64) []byte {
		out := append([]byte(nil), sec...)
		binary.BigEndian.PutUint64(out[off:], v)
		return out
	}
	basic, packed := section(Basic{}), section(Packed{BlockSize: 4})
	tset := section(TSet{BucketCapacity: 16, Expansion: 1.5})
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"nil", nil},
		{"empty", []byte{}},
		{"unknown tag", []byte{99}},
		{"short basic", []byte{tagBasic, 0, 0}},
		{"short tset", []byte{tagTSet, 1, 2, 3}},
		{"zero width", put(basic, 0, uint64(tagBasic)<<56)},
		{"segment past the end", put(basic, 8, math.MaxUint64)},
		{"truncated", basic[:len(basic)-5]},
		{"trailing byte", append(append([]byte(nil), basic...), 0)},
		{"packed postings beyond its blocks", put(packed, 8, 1<<40)},
		// 2^59 buckets of 16 slots: the slot product wraps to 0 mod 2^64.
		{"tset slot overflow", put(tset, 24, 1<<59)},
		{"tset postings beyond its slots", put(tset, 16, 1<<40)},
	} {
		if _, err := OpenSection(c.data, prf.SuiteSHA512); err == nil {
			t.Errorf("%s: garbage accepted", c.name)
		}
	}
}

func TestWrongStagFindsNothing(t *testing.T) {
	db := map[string][]uint64{"kw": {1, 2, 3, 4, 5}}
	for _, s := range testSchemes() {
		idx := buildTestIndex(t, s, db)
		var random Stag
		for i := range random {
			random[i] = byte(i * 7)
		}
		got, err := searchOne(idx, random)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("%s: random stag matched %d payloads", s.Name(), len(got))
		}
	}
}

func TestOpaquePayloadWidths(t *testing.T) {
	// Non-id payloads (like SRC-i's 40-byte pair blobs) roundtrip too.
	payload := func(fill byte, w int) []byte { return bytes.Repeat([]byte{fill}, w) }
	for _, w := range []int{1, 24, 40, 100} {
		entries := []Entry{{
			Stag: stagOf(t, "wide"),
			Data: slices.Concat(payload(1, w), payload(2, w), payload(3, w)),
		}}
		for _, s := range testSchemes() {
			idx, err := s.Build(entries, w, mrand.New(mrand.NewSource(3)), nil, prf.SuiteSHA512)
			if err != nil {
				t.Fatalf("%s width %d: %v", s.Name(), w, err)
			}
			got, err := searchOne(idx, stagOf(t, "wide"))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 3 {
				t.Fatalf("%s width %d: got %d payloads", s.Name(), w, len(got))
			}
			seen := map[byte]bool{}
			for _, p := range got {
				if len(p) != w {
					t.Fatalf("%s: payload width %d, want %d", s.Name(), len(p), w)
				}
				seen[p[0]] = true
				if !bytes.Equal(p, payload(p[0], w)) {
					t.Fatalf("%s: payload corrupted", s.Name())
				}
			}
			if len(seen) != 3 {
				t.Fatalf("%s: payloads collapsed: %v", s.Name(), seen)
			}
		}
	}
}

// TestQuickRoundtrip is a property test across random databases.
func TestQuickRoundtrip(t *testing.T) {
	for _, s := range testSchemes() {
		f := func(lists [][]uint64) bool {
			db := make(map[string][]uint64, len(lists))
			for i, ids := range lists {
				if len(ids) > 0 {
					db[string(rune('a'+i%26))+string(rune('0'+i/26))] = ids
				}
			}
			idx := buildTestIndex(t, s, db)
			for kw, ids := range db {
				if !equalIDs(searchIDs(t, idx, kw), sortedCopy(ids)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"basic", "packed", "tset"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// oneStag searches one stag at a time, as a slice of one, reusing its
// stag, data and ends slices so a steady-state search allocates only
// what Search itself does.
type oneStag struct {
	stag [1]Stag
	data []byte
	ends []int
}

// search returns the number of payloads stored under stag.
func (o *oneStag) search(idx Index, stag Stag) (int, error) {
	o.stag[0] = stag
	data, ends, err := idx.Search(o.stag[:], o.data[:0], o.ends[:0])
	if err != nil {
		return 0, err
	}
	o.data, o.ends = data, ends
	if len(ends) != 1 || len(data) != ends[0]*idx.Width() {
		return 0, fmt.Errorf("one stag answered with %d ends over %d bytes", len(ends), len(data))
	}
	return ends[0], nil
}

// searchOne searches one stag, as a slice of one, and returns its
// payloads one slice each.
func searchOne(idx Index, stag Stag) ([][]byte, error) {
	o := new(oneStag)
	if _, err := o.search(idx, stag); err != nil {
		return nil, err
	}
	return slices.Collect(slices.Chunk(o.data, idx.Width())), nil
}
