package sse

import (
	"bytes"
	mrand "math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

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
	return StagFromPRF(k, kw)
}

// buildTestIndex builds an index over a deterministic keyword→ids map on
// the default storage engine.
func buildTestIndex(t testing.TB, s Scheme, db map[string][]uint64) Index {
	t.Helper()
	return buildTestIndexOn(t, s, db, nil)
}

// buildTestIndexOn builds the same index on an explicit storage engine.
// Entries are built in sorted keyword order so repeated builds from the
// same seed are bit-identical (map iteration order must not leak in).
func buildTestIndexOn(t testing.TB, s Scheme, db map[string][]uint64, eng storage.Engine) Index {
	t.Helper()
	kws := make([]string, 0, len(db))
	for kw := range db {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	entries := make([]Entry, 0, len(db))
	for _, kw := range kws {
		entries = append(entries, EntryFromIDs(stagOf(t, kw), db[kw]))
	}
	idx, err := s.Build(entries, 8, mrand.New(mrand.NewSource(1)), eng, prf.SuiteSHA512)
	if err != nil {
		t.Fatalf("%s: Build: %v", s.Name(), err)
	}
	return idx
}

func searchIDs(t testing.TB, idx Index, kw string) []uint64 {
	t.Helper()
	payloads, err := idx.Search(stagOf(t, kw))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(payloads))
	for i, p := range payloads {
		out[i] = PayloadU64(p)
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
		for _, eng := range storage.Engines() {
			t.Run(s.Name()+"/"+eng.Name(), func(t *testing.T) {
				idx := buildTestIndexOn(t, s, db, eng)
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
		got, err := idx.Search(stagOf(t, "anything"))
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
	payloads, err := idx.Search(stagOf(t, "k"))
	if err != nil {
		t.Fatal(err)
	}
	inOrder := true
	for i, p := range payloads {
		if PayloadU64(p) != uint64(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("posting list retained insertion order; shuffle missing")
	}
}

func TestWidthValidation(t *testing.T) {
	entries := []Entry{{Stag: stagOf(t, "w"), Payloads: [][]byte{{1, 2, 3}}}}
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
	entries := []Entry{EntryFromIDs(s, []uint64{1}), EntryFromIDs(s, []uint64{2})}
	for _, sch := range testSchemes() {
		if _, err := sch.Build(entries, 8, nil, nil, prf.SuiteSHA512); err == nil {
			t.Errorf("%s: duplicate stag accepted", sch.Name())
		}
	}
}

func TestMarshalRoundtripAllSchemes(t *testing.T) {
	db := map[string][]uint64{
		"one": {1, 11, 111},
		"two": {2, 22},
		"six": {6},
	}
	for _, s := range testSchemes() {
		t.Run(s.Name(), func(t *testing.T) {
			idx := buildTestIndex(t, s, db)
			blob, err := idx.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) != idx.Size() {
				t.Errorf("Size() = %d but marshaled %d bytes", idx.Size(), len(blob))
			}
			// The wire format must not depend on the engine the index was
			// built on: the same build on every engine marshals to the
			// same bytes.
			for _, eng := range Engines() {
				other := buildTestIndexOn(t, s, db, eng)
				blob2, err := other.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, blob2) {
					t.Errorf("engine %s marshals different bytes", eng.Name())
				}
			}
			// ... and every engine can load the blob back.
			for _, eng := range append([]storage.Engine{nil}, Engines()...) {
				back, err := Unmarshal(blob, eng)
				if err != nil {
					t.Fatal(err)
				}
				if back.Postings() != idx.Postings() || back.Width() != idx.Width() {
					t.Error("metadata lost in roundtrip")
				}
				for kw, ids := range db {
					got, err := back.Search(stagOf(t, kw))
					if err != nil {
						t.Fatal(err)
					}
					sorted := make([]uint64, len(got))
					for i, p := range got {
						sorted[i] = PayloadU64(p)
					}
					sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
					if !equalIDs(sorted, sortedCopy(ids)) {
						t.Errorf("after roundtrip, Search(%q) = %v", kw, sorted)
					}
				}
			}
		})
	}
}

// Engines is shorthand for the storage engines under test.
func Engines() []storage.Engine { return storage.Engines() }

func TestUnmarshalRejectsGarbage(t *testing.T) {
	// overflowTSet: width=16, salt=0, postings=0, numBuckets=2^59,
	// capacity=16, empty body — the record-count product wraps to 0 mod
	// 2^64, so a naive length check passes and makeslice panics.
	overflowTSet := []byte{tagTSet, 0, 0, 0, 16,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x08, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16}
	// overflowBasic: width=2^31, count=2^33 → count*rec wraps.
	overflowBasic := []byte{tagBasic, 0x80, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}
	cases := [][]byte{nil, {}, {99}, {tagBasic, 0, 0}, {tagTSet, 1, 2, 3},
		overflowTSet, overflowBasic}
	for _, eng := range storage.Engines() {
		for i, c := range cases {
			if _, err := Unmarshal(c, eng); err == nil {
				t.Errorf("%s case %d: garbage accepted", eng.Name(), i)
			}
		}
		// Truncated valid index.
		idx := buildTestIndex(t, Basic{}, map[string][]uint64{"k": {1, 2}})
		blob, _ := idx.MarshalBinary()
		if _, err := Unmarshal(blob[:len(blob)-5], eng); err == nil {
			t.Errorf("%s: truncated basic blob accepted", eng.Name())
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
		got, err := idx.Search(random)
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
			Stag:     stagOf(t, "wide"),
			Payloads: [][]byte{payload(1, w), payload(2, w), payload(3, w)},
		}}
		for _, s := range testSchemes() {
			idx, err := s.Build(entries, w, mrand.New(mrand.NewSource(3)), nil, prf.SuiteSHA512)
			if err != nil {
				t.Fatalf("%s width %d: %v", s.Name(), w, err)
			}
			got, err := idx.Search(stagOf(t, "wide"))
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

func TestU64PayloadRoundtrip(t *testing.T) {
	f := func(v uint64) bool { return PayloadU64(U64Payload(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
