package sse

import (
	"crypto/sha256"
	"encoding/hex"
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/storage"
)

// identityEntries is the byte-identity test's input: n keywords of
// 1–maxList postings each, under pseudorandom stags.
func identityEntries(n, maxList int) []Entry {
	rnd := mrand.New(mrand.NewSource(31))
	entries := make([]Entry, n)
	for i := range entries {
		var stag Stag
		rnd.Read(stag[:])
		ids := make([]uint64, 1+rnd.Intn(maxList))
		for j := range ids {
			ids[j] = rnd.Uint64()
		}
		entries[i] = EntryFromIDs(stag, ids)
	}
	return entries
}

// identityShapes are the constructions the byte-identity test builds.
// The second TSet's buckets are tight enough that its build re-salts,
// and TwoLevel's small C and B put lists in all three of its tiers.
var identityShapes = []struct {
	name string
	sch  Scheme
}{
	{"basic", Basic{}},
	{"packed", Packed{BlockSize: 4}},
	{"tset", TSet{BucketCapacity: 64, Expansion: 1.5}},
	{"tset-retry", TSet{BucketCapacity: 40, Expansion: 1.55, MaxRetries: 500}},
	{"2lev", TwoLevel{InlineCap: 4, BlockSize: 4}},
}

// identityDigests are the SHA-256 digests of the sections the shapes
// above build from identityEntries(500, 20) under seed 32, per suite,
// with the TSet salt each build ends on — recorded from the serial
// builder the parallel one replaced. A build must reproduce them on
// every engine and for every worker count.
var identityDigests = map[string][prf.NumSuites]struct {
	salt   uint64
	digest string
}{
	"basic": {
		{0, "c50ff8a947010811a4b3852c1c69aae5838cc7fc83fef56ba17ca62f20405e0a"},
		{0, "4ae3ce8df128fdad68e468cd74251b69cd98c552889b13cdcf72e35d06d1e2cb"},
		{0, "e48a65ff4154fbf3d873f1d2dab3be62ad732afb89ca93829bc2205ff3b583a0"},
	},
	"packed": {
		{0, "47805a5ca1b39cd34245c25cc1066d888957445059a0fa3eac1e5b78bc72f9d3"},
		{0, "04832877f79259fc18d523462143cbd969e8ca588f7a8868b5c38c629609b3ed"},
		{0, "d27af1c9452202a6bd329b1f0085aa2c9540246ca834d795949d452fbcc9debc"},
	},
	"tset": {
		{1, "9ce05a2fed5a099a625023a9ac4ff523498818dca162f315af79f980577fd898"},
		{1, "9d6f7df829851e2214836b1ab8f4bec21dd10e974670502cc2841cba36e42730"},
		{0, "fce8d7c8d5c11a1c4557ff34916e38a265207c634c98ebc456b346c8d80fd3e5"},
	},
	"tset-retry": {
		{3, "b4e06ba093a5e6d9fe39e842432e8fd8fe77e27d70610726c3fe10ca53cd5f40"},
		{1, "bd46d95df729c113462ab6027d509ab419a1ab8412861093f94a0f155c076b52"},
		{1, "4d2b79deb9da2b29adc107a851210d0f8b44d6f37a67905496e615428bd57bf0"},
	},
	"2lev": {
		{0, "f421bc0f3c2e9408f698232943fea37f7b79c04d0eed4af0d175b784cb74ccea"},
		{0, "a22005c6a56ee1f10366dccdb4308cbdfbadaf2f86a527f29dcda35bd7510dee"},
		{0, "02fd84e1cd85af5be8535dc50887c97be9f112cc0e7267bf09d38098952266f5"},
	},
}

// TestBuildByteIdentical: the build's seal phase runs on any number of
// workers, and the index is the same bytes whatever the number — the
// serial builder's bytes, since every RNG draw stays in the plan phase,
// in its old order, including the draws of a TSet attempt that
// overflowed and re-salted.
func TestBuildByteIdentical(t *testing.T) {
	entries := identityEntries(500, 20)
	defer func(w int) { buildWorkers = w }(buildWorkers)
	for _, sh := range identityShapes {
		for _, suite := range prf.Suites() {
			want := identityDigests[sh.name][suite]
			for _, eng := range storage.Engines() {
				for _, workers := range []int{1, 2, 4} {
					buildWorkers = workers
					idx, err := sh.sch.Build(entries, 8, mrand.New(mrand.NewSource(32)), eng, suite)
					if err != nil {
						t.Fatalf("%s/%s/%s/%d workers: %v", sh.name, suite, eng.Name(), workers, err)
					}
					sec, err := MarshalSection(idx)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(sec)
					salt := uint64(0)
					if x, ok := idx.(*tsetIndex); ok {
						salt = x.salt
					}
					if got := hex.EncodeToString(sum[:]); got != want.digest || salt != want.salt {
						t.Errorf("%s/%s/%s/%d workers: section %s salt %d, want %s salt %d",
							sh.name, suite, eng.Name(), workers, got[:16], salt, want.digest[:16], want.salt)
					}
				}
			}
		}
	}
}

// TestBuildAllocs pins the build's own allocations per posting for
// each construction, on the sorted engine, whose Put allocates nothing
// per record. What is left is per stag (the AES key schedule) or per
// build (the backing arrays), plus TwoLevel's slot pointers; a cell
// encryption, label or bucket index allocates nothing.
func TestBuildAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	entries := identityEntries(500, 20)
	postings := 0
	for _, e := range entries {
		postings += len(e.Payloads)
	}
	ceilings := map[string]float64{"basic": 0.15, "packed": 0.15, "tset": 0.15, "tset-retry": 0.15, "2lev": 0.75}
	eachSuite(t, func(t *testing.T, suite prf.Suite) {
		for _, sh := range identityShapes {
			n := testing.AllocsPerRun(3, func() {
				if _, err := sh.sch.Build(entries, 8, mrand.New(mrand.NewSource(32)), storage.Sorted{}, suite); err != nil {
					t.Fatal(err)
				}
			}) / float64(postings)
			if n > ceilings[sh.name] {
				t.Errorf("%s: %.2f allocs per posting, want <= %.2f", sh.name, n, ceilings[sh.name])
			}
		}
	})
}

// TestSealEachRaisesWorkerPanic: a panic on a seal worker surfaces on
// the caller's goroutine, where the serial build raised it, instead of
// taking the process down from a goroutine nobody can recover in.
func TestSealEachRaisesWorkerPanic(t *testing.T) {
	defer func(w int) { buildWorkers = w }(buildWorkers)
	buildWorkers = 4
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the worker's panic", p)
		}
	}()
	sealEach(prf.SuiteBlock, 10*sealChunk, func(_ *stagSealer, i int) {
		if i == 5*sealChunk {
			panic("boom")
		}
	})
	t.Fatal("sealEach returned past a worker panic")
}
