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
// with the TSet salt each build ends on. The serial builder the parallel
// one replaced wrote the same records; these digests are of its sections
// re-encoded with segment v2, the format sealing now writes. A build
// must reproduce them on every engine and for every worker count. Suite
// 3's were recorded when it was added; its salts are suite 2's, whose
// labels and buckets it shares.
var identityDigests = map[string][prf.NumSuites]struct {
	salt   uint64
	digest string
}{
	"basic": {
		{0, "419a8ff8ba58b41412da34d37b604f4156bb1d8ec6deb5d53407f99b82629f69"},
		{0, "4133173f13e1ab0cf4ad09808820ec505267468496f9998e73cbb4e9f15eb311"},
		{0, "d8af1997b5cd4fa8d885338ca9e88f37403b20cd87a7179bd5cf99b232d7910b"},
		{0, "27551d38c1b0f0e93d033222fd84f6ce5e2d5353a7f8766f7df5976d561a6629"},
	},
	"packed": {
		{0, "25f6b17a98c18d5c37d8cb3bcfb0a5578ff476da9761f6338c67e36567f18ce4"},
		{0, "445b99f34babf5158740c698db15e5eab1951816ea7e56483c85eb0798a537a8"},
		{0, "09e3402af38aff2f6fd5b9917a9102a5f6fc43c4f9c4d0976a6c6325fb72f07b"},
		{0, "5a24e3fa698833e95ee0772ab1e8e1a786a8ea03a62748bd97d736b743bac296"},
	},
	"tset": {
		{1, "312a88f302693980a541d21086773dc74228270612109edcda0a1f2274d1745d"},
		{1, "19a5340912469a4b202bc5e99e8f87f8fa6ef767ac0092c4a7a895b0fd97b31d"},
		{0, "337d237190e44579e3345f31ef8a28bee44136c6f2817126a96817b545bfc08e"},
		{0, "121fa741df861f15fd97a7b971777e84ba08c5bab2ee64cedb9a69a165a573ea"},
	},
	"tset-retry": {
		{3, "a6846fb0abc53f7d60f837229366e9b9d91c86ef5e5d705735edf22213821c60"},
		{1, "08c69ee604cb8454b6b4227299719d38f435b49ae1d753eec36107f6b1ee8caa"},
		{1, "4ea96372b05d0d4e2535af6d99848c2fb89526b9a89ef08480f12d3a5239a034"},
		{1, "80089af5eaf1481c49d6e75b878dcd69ec772fde50c25008570433e8409b8f43"},
	},
	"2lev": {
		{0, "5b3143237cbd28e050ff6108bdcfbaa48fb508797925d0cdbdb89d92ec2bc7b1"},
		{0, "a2f301752f3f2c754c756afa2af2a8df4619dabf7515e13868c039f72a35cdd4"},
		{0, "50f2b2d61da7a18b428df4a51439dd209186aa2aab82da0cfd318445dd2e2ff4"},
		{0, "7e6cb786abb26d9138fe82e0af524b08c214c38f255ee1d852259b466ba59eb2"},
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
// per record. What is left is per stag (the AES key schedule; none
// under suite 3) or per build (the backing arrays), plus TwoLevel's slot
// pointers; a cell encryption, label or bucket index allocates nothing.
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
