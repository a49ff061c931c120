package sse

import (
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

func TestTSetPadding(t *testing.T) {
	// The serialized size must reflect full buckets, independent of how
	// keywords distribute their postings.
	s := TSet{BucketCapacity: 32, Expansion: 1.5}
	dbA := map[string][]uint64{"a": make([]uint64, 40)}
	dbB := map[string][]uint64{}
	for i := 0; i < 40; i++ {
		dbB[string(rune('a'+i))] = []uint64{uint64(i)}
	}
	idxA := buildTestIndex(t, s, dbA)
	idxB := buildTestIndex(t, s, dbB)
	if idxA.Sizes().Total() != idxB.Sizes().Total() {
		t.Errorf("size depends on keyword distribution: %d vs %d", idxA.Sizes().Total(), idxB.Sizes().Total())
	}
	ta := idxA.(*tsetIndex)
	wantSlots := ta.Buckets() * ta.Capacity()
	if wantSlots < 60 { // ceil(1.5*40/32)=2 buckets * 32
		t.Errorf("expected at least 60 slots, got %d", wantSlots)
	}
}

func TestTSetBucketCount(t *testing.T) {
	s := TSet{BucketCapacity: 10, Expansion: 2.0}
	db := map[string][]uint64{"k": make([]uint64, 25)}
	idx := buildTestIndex(t, s, db).(*tsetIndex)
	if got := idx.Buckets(); got != 5 { // ceil(2.0*25/10)
		t.Errorf("Buckets = %d, want 5", got)
	}
	if idx.Capacity() != 10 {
		t.Errorf("Capacity = %d, want 10", idx.Capacity())
	}
}

func TestTSetOverflowRetriesWithSalt(t *testing.T) {
	// Tight buckets force overflows; the build must still succeed by
	// re-salting under every suite, and the salt must survive the section
	// roundtrip onto every engine. Bucket placement depends only on the
	// stag, the suite and the salt, so the observed salts are
	// deterministic.
	s := TSet{BucketCapacity: 8, Expansion: 1.3, MaxRetries: 200}
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64(i)
	}
	defer ResetKernelCache()
	eachSuite(t, func(t *testing.T, suite prf.Suite) {
		idx, err := s.Build([]Entry{idEntry(stagOf(t, "k"), ids)}, 8, mrand.New(mrand.NewSource(9)), nil, suite)
		if err != nil {
			t.Fatalf("build with tight buckets: %v", err)
		}
		built := idx.(*tsetIndex)
		if built.salt == 0 {
			t.Error("expected the build to exercise the re-salting path")
		}
		if got := searchIDs(t, idx, "k"); len(got) != 64 {
			t.Fatalf("got %d ids, want 64", len(got))
		}
		sec, err := MarshalSection(idx)
		if err != nil {
			t.Fatal(err)
		}
		back, err := OpenSection(sec, suite)
		if err != nil {
			t.Fatal(err)
		}
		if salt := back.(*tsetIndex).salt; salt != built.salt {
			t.Fatalf("salt %d after the roundtrip, built %d", salt, built.salt)
		}
		if got := searchIDs(t, back, "k"); len(got) != 64 {
			t.Fatalf("after roundtrip got %d ids, want 64", len(got))
		}
	})
}

// TestTSetResidentIsTheCells: a built TSet pins its cells and nothing
// else — no per-slot copy of the labels in bucket order — so it holds
// its cell segment's array, which is the segment's own length, and the
// same section reopened in place pins nothing.
func TestTSetResidentIsTheCells(t *testing.T) {
	db := map[string][]uint64{"a": {1, 2, 3}, "b": {4}}
	for _, eng := range storage.Engines() {
		idx := buildTestIndexOn(t, TSet{BucketCapacity: 64, Expansion: 1.5}, db, eng)
		seg := idx.(*tsetIndex).lookup.Segment()
		if idx.Resident() != cap(seg) || cap(seg) != len(seg) {
			t.Errorf("%s: built TSet pins %d bytes, its cell segment is %d in an array of %d", eng.Name(), idx.Resident(), len(seg), cap(seg))
		}
		sec, err := MarshalSection(idx)
		if err != nil {
			t.Fatal(err)
		}
		back, err := OpenSection(sec, prf.SuiteSHA512)
		if err != nil {
			t.Fatal(err)
		}
		if back.Resident() != 0 {
			t.Errorf("%s: reopened TSet pins %d bytes, want 0", eng.Name(), back.Resident())
		}
	}
}

func TestTSetExhaustedRetries(t *testing.T) {
	// One-slot buckets with barely more slots than records cannot fit a
	// multi-record keyword; the build must give up with a clear error.
	s := TSet{BucketCapacity: 1, Expansion: 1.01, MaxRetries: 3}
	ids := make([]uint64, 50)
	_, err := s.Build([]Entry{idEntry(stagOf(t, "k"), ids)}, 8, mrand.New(mrand.NewSource(4)), nil, prf.SuiteSHA512)
	if err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestTSetParamValidation(t *testing.T) {
	if _, err := (TSet{BucketCapacity: -1}).Build(nil, 8, nil, nil, prf.SuiteSHA512); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := (TSet{Expansion: 0.9}).Build(nil, 8, nil, nil, prf.SuiteSHA512); err == nil {
		t.Error("expansion below 1 accepted")
	}
}

func TestTSetDefaults(t *testing.T) {
	capacity, expansion, retries, err := TSet{}.params()
	if err != nil {
		t.Fatal(err)
	}
	if capacity != DefaultBucketCapacity || expansion != DefaultExpansion || retries != defaultMaxRetries {
		t.Errorf("defaults = (%d, %v, %d)", capacity, expansion, retries)
	}
}

func TestPackedBlockBoundaries(t *testing.T) {
	// Posting list lengths around the block size must all roundtrip.
	for _, n := range []int{1, 3, 4, 5, 8, 9, 12, 13} {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		idx := buildTestIndex(t, Packed{BlockSize: 4}, map[string][]uint64{"k": ids})
		got := searchIDs(t, idx, "k")
		if len(got) != n {
			t.Errorf("n=%d: got %d ids", n, len(got))
		}
	}
}

func TestPackedInvalidBlockSize(t *testing.T) {
	if _, err := (Packed{BlockSize: 300}).Build(nil, 8, nil, nil, prf.SuiteSHA512); err == nil {
		t.Error("block size over 255 accepted")
	}
	if _, err := (Packed{BlockSize: -2}).Build(nil, 8, nil, nil, prf.SuiteSHA512); err == nil {
		t.Error("negative block size accepted")
	}
}

func TestPackedSmallerThanBasic(t *testing.T) {
	// For long posting lists, packing must beat one-label-per-id storage.
	ids := make([]uint64, 1000)
	for i := range ids {
		ids[i] = uint64(i)
	}
	db := map[string][]uint64{"k": ids}
	basic := buildTestIndex(t, Basic{}, db)
	packed := buildTestIndex(t, Packed{BlockSize: 16}, db)
	if packed.Sizes().Total() >= basic.Sizes().Total() {
		t.Errorf("packed (%d) not smaller than basic (%d)", packed.Sizes().Total(), basic.Sizes().Total())
	}
}

func TestSchemeNames(t *testing.T) {
	if (Basic{}).Name() != "basic" || (Packed{}).Name() != "packed" || (TSet{}).Name() != "tset" {
		t.Error("scheme names drifted")
	}
}
