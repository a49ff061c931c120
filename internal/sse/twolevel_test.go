package sse

import (
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
)

func buildTwoLevel(t *testing.T, s TwoLevel, db map[string][]uint64) Index {
	t.Helper()
	entries := make([]Entry, 0, len(db))
	for kw, ids := range db {
		entries = append(entries, idEntry(stagOf(t, kw), ids))
	}
	idx, err := s.Build(entries, 8, mrand.New(mrand.NewSource(5)), nil, prf.SuiteSHA512)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func seq(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// TestTwoLevelAllTiers exercises posting lists that land in each of the
// three storage tiers, plus the boundaries between them.
func TestTwoLevelAllTiers(t *testing.T) {
	s := TwoLevel{InlineCap: 4, BlockSize: 4} // tiers: <=4, <=16, <=64
	cases := map[string]int{
		"empty-ish": 1,
		"inline":    4,  // exactly C
		"medium-lo": 5,  // first spill
		"medium-hi": 16, // exactly C*B
		"large-lo":  17, // first double indirection
		"large-mid": 40,
		"large-hi":  64, // exactly C*B*B
	}
	db := map[string][]uint64{}
	for kw, n := range cases {
		db[kw] = seq(n)
	}
	idx := buildTwoLevel(t, s, db)
	for kw, n := range cases {
		got := searchIDs(t, idx, kw)
		if !equalIDs(got, sortedCopy(seq(n))) {
			t.Errorf("%s (n=%d): got %d ids", kw, n, len(got))
		}
	}
	if got := searchIDs(t, idx, "absent"); len(got) != 0 {
		t.Errorf("absent keyword returned %d ids", len(got))
	}
}

func TestTwoLevelTooLong(t *testing.T) {
	s := TwoLevel{InlineCap: 2, BlockSize: 2} // max 8 ids
	_, err := s.Build([]Entry{idEntry(stagOf(t, "k"), seq(9))}, 8, nil, nil, prf.SuiteSHA512)
	if err == nil {
		t.Fatal("oversized posting list accepted")
	}
}

func TestTwoLevelWidthRestriction(t *testing.T) {
	s := TwoLevel{}
	entries := []Entry{{Stag: stagOf(t, "w"), Data: make([]byte, 24)}}
	if _, err := s.Build(entries, 24, nil, nil, prf.SuiteSHA512); err == nil {
		t.Fatal("non-8-byte width accepted")
	}
}

func TestTwoLevelParamValidation(t *testing.T) {
	if _, err := (TwoLevel{InlineCap: -1}).Build(nil, 8, nil, nil, prf.SuiteSHA512); err == nil {
		t.Error("negative inline cap accepted")
	}
	if _, err := (TwoLevel{BlockSize: 1}).Build(nil, 8, nil, nil, prf.SuiteSHA512); err == nil {
		t.Error("block size 1 accepted")
	}
}

func TestTwoLevelMarshalRoundtrip(t *testing.T) {
	s := TwoLevel{InlineCap: 3, BlockSize: 4}
	db := map[string][]uint64{
		"small": seq(2),
		"mid":   seq(10),
		"big":   seq(40),
	}
	defer ResetKernelCache()
	eachSuite(t, func(t *testing.T, suite prf.Suite) {
		idx := buildSuiteIndex(t, s, db, nil, suite)
		sec, err := MarshalSection(idx)
		if err != nil {
			t.Fatal(err)
		}
		back, err := OpenSection(sec, suite)
		if err != nil {
			t.Fatal(err)
		}
		for kw, ids := range db {
			if got := searchIDs(t, back, kw); !equalIDs(got, ids) {
				t.Errorf("after roundtrip %s: %d ids, want %d", kw, len(got), len(ids))
			}
		}
		if back.Postings() != idx.Postings() || back.Sizes().Total() != idx.Sizes().Total() {
			t.Errorf("postings/size %d/%d after roundtrip, built %d/%d",
				back.Postings(), back.Sizes().Total(), idx.Postings(), idx.Sizes().Total())
		}
		// Truncations rejected.
		for _, cut := range []int{1, 10, len(sec) - 3} {
			if _, err := OpenSection(sec[:cut], suite); err == nil {
				t.Errorf("truncated at %d accepted", cut)
			}
		}
	})
}

// TestTwoLevelBlockAccounting: the array must hold exactly the blocks the
// tier math predicts, with no hidden slack.
func TestTwoLevelBlockAccounting(t *testing.T) {
	s := TwoLevel{InlineCap: 2, BlockSize: 4}
	db := map[string][]uint64{
		"inline": seq(2),  // 0 blocks
		"medium": seq(8),  // 2 id blocks
		"large":  seq(16), // 4 id blocks + 1 ptr block
	}
	idx := buildTwoLevel(t, s, db).(*twoLevelIndex)
	if got := idx.BlockCount(); got != 7 {
		t.Errorf("BlockCount = %d, want 7", got)
	}
}

// TestTwoLevelCompactForLongLists: for one long posting list, 2lev should
// be far smaller than Basic (one dictionary record per posting).
func TestTwoLevelCompactForLongLists(t *testing.T) {
	db := map[string][]uint64{"k": seq(5000)}
	two := buildTwoLevel(t, TwoLevel{InlineCap: 16, BlockSize: 64}, db)
	basic := buildTestIndex(t, Basic{}, db)
	if two.Sizes().Total() >= basic.Sizes().Total() {
		t.Errorf("2lev (%d) not smaller than basic (%d)", two.Sizes().Total(), basic.Sizes().Total())
	}
}

// TestTwoLevelThroughSchemes runs a full RSSE scheme over the 2lev
// construction (id-width schemes only; SRC-i's 40-byte pairs are
// rejected, which TestTwoLevelWidthRestriction covers).
func TestTwoLevelByName(t *testing.T) {
	s, err := ByName("2lev")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "2lev" {
		t.Errorf("Name = %q", s.Name())
	}
}
