package sse

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	mrand "math/rand"
	"sort"
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
		entries[i] = idEntry(stag, ids)
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
// with the TSet salt each build ends on: digest with the dictionaries
// sealed as segment v3, as every engine seals them, and v2 with the
// same records in segment v2, each label whole (wholeSection). The
// serial builder the parallel one replaced wrote the same records, and
// the v2 digests are of its sections re-encoded with segment v2. A
// build must reproduce both on every engine and for every worker count. Suite 3's
// were recorded when it was added; its salts are suite 2's, whose
// labels and buckets it shares.
var identityDigests = map[string][prf.NumSuites]struct {
	salt       uint64
	digest, v2 string
}{
	"basic": {
		{0, "a6747b2ea279d867d407b9d2652df2b687917fbbbc52217a377a5332402306b0", "419a8ff8ba58b41412da34d37b604f4156bb1d8ec6deb5d53407f99b82629f69"},
		{0, "f26680e245986e8853d8d0727f61c38c91b6ffc04c75d160dfc0ee3b27041812", "4133173f13e1ab0cf4ad09808820ec505267468496f9998e73cbb4e9f15eb311"},
		{0, "f2fb0fce7af6156e94252792873b3d3c7054c24e913bc237679b5a32ad27beb7", "d8af1997b5cd4fa8d885338ca9e88f37403b20cd87a7179bd5cf99b232d7910b"},
		{0, "d5c15c3108f240a6bb095a35b93c3cbf69a0eefd8d9ee7d1d89b92aacfcb8d44", "27551d38c1b0f0e93d033222fd84f6ce5e2d5353a7f8766f7df5976d561a6629"},
	},
	"packed": {
		{0, "12701c35e9dc5a7e941847cfc42a7b49e80ddebe9a49e0695992983e5f1d8d76", "25f6b17a98c18d5c37d8cb3bcfb0a5578ff476da9761f6338c67e36567f18ce4"},
		{0, "51278914b60edba9115ed9ab0a685ad4f66c26b5a2c7fc4968feda7c8a4d8aa8", "445b99f34babf5158740c698db15e5eab1951816ea7e56483c85eb0798a537a8"},
		{0, "5822d3506c11b14b9aa6a7b2c1d812b77c5e73d7550636193bdfc61dae0d10a8", "09e3402af38aff2f6fd5b9917a9102a5f6fc43c4f9c4d0976a6c6325fb72f07b"},
		{0, "522068eff6732650a98f1cd6d070cd2ff0812064d6865814a0e222e6d9620667", "5a24e3fa698833e95ee0772ab1e8e1a786a8ea03a62748bd97d736b743bac296"},
	},
	"tset": {
		{1, "75debb9e924877198e77a6edecf39cf5e6794492ae8f465bef77a176cad4b614", "312a88f302693980a541d21086773dc74228270612109edcda0a1f2274d1745d"},
		{1, "dec19b0b3bc6fd8efdd4cab5f92e9142fe855248b9d004cce9b9fe64ed43e31a", "19a5340912469a4b202bc5e99e8f87f8fa6ef767ac0092c4a7a895b0fd97b31d"},
		{0, "0d946dc1aee08ce7d4161ad0f951f5c2f99ced2b7b32d3f3c54225b4b9dee537", "337d237190e44579e3345f31ef8a28bee44136c6f2817126a96817b545bfc08e"},
		{0, "6be11c3333cc2b725f39d9a2f33a2ad99cfa7e6b401b5331831a508304209089", "121fa741df861f15fd97a7b971777e84ba08c5bab2ee64cedb9a69a165a573ea"},
	},
	"tset-retry": {
		{3, "dff5b2132beee3ad645fb6b88088011ae16b1c5f140d5a507b62f8cf0fd4adf1", "a6846fb0abc53f7d60f837229366e9b9d91c86ef5e5d705735edf22213821c60"},
		{1, "7f0c61ed9df18fe4b7d18c5348910206efe7630609b917cacdb0e4c66ea413a5", "08c69ee604cb8454b6b4227299719d38f435b49ae1d753eec36107f6b1ee8caa"},
		{1, "c666a5795010936d51c924ed7b9af44e40cd8ce8e239c3f89f1b20915e3b7838", "4ea96372b05d0d4e2535af6d99848c2fb89526b9a89ef08480f12d3a5239a034"},
		{1, "a1ad1648ac85d8dc85ee0719faafebbaefa986040b5e07eb81b7725157017a0a", "80089af5eaf1481c49d6e75b878dcd69ec772fde50c25008570433e8409b8f43"},
	},
	"2lev": {
		{0, "33aff340831735530b14ff19218bfd05360ce14d824b05807ced7be5f3d7cb60", "5b3143237cbd28e050ff6108bdcfbaa48fb508797925d0cdbdb89d92ec2bc7b1"},
		{0, "ab80e2058ec95a2f9c20a3756171414d8425614da1654b12960a1da0566f3d02", "a2f301752f3f2c754c756afa2af2a8df4619dabf7515e13868c039f72a35cdd4"},
		{0, "fc82904713abe71355034e0021c35b132e7b23dfb43348cba27795d474e0e34f", "50f2b2d61da7a18b428df4a51439dd209186aa2aab82da0cfd318445dd2e2ff4"},
		{0, "0c8124c5e18dd5f253164bf5158b33336020714f3b5f1060c17ad61bdfa2f6d0", "7e6cb786abb26d9138fe82e0af524b08c214c38f255ee1d852259b466ba59eb2"},
	},
}

// recordingEngine seals on its Engine and keeps the records the last
// builder it started was given: the whole labels a build puts.
type recordingEngine struct {
	storage.Engine
	recs map[string][]byte
}

func (e *recordingEngine) NewBuilder(keyLen, capacityHint int) storage.Builder {
	e.recs = map[string][]byte{}
	return recordingBuilder{e.Engine.NewBuilder(keyLen, capacityHint), e.recs}
}

type recordingBuilder struct {
	storage.Builder
	recs map[string][]byte
}

func (b recordingBuilder) Put(key, value []byte) error {
	b.recs[string(key)] = bytes.Clone(value)
	return b.Builder.Put(key, value)
}

// wholeSection is sec with its label segment as segment v2 holds recs,
// the records its builder was given: each label whole, then its cell,
// in label order, and the directory, which depends on the labels' top
// bits alone. It fails t unless every record of the v3 segment is its
// label's stored window and its cell.
func wholeSection(t *testing.T, sec []byte, recs map[string][]byte) []byte {
	t.Helper()
	r := sectionReader{data: sec, off: map[byte]int{tagBasic: 8, tagPacked: 16, tagTSet: 40, tagTwoLevel: 24}[sec[0]]}
	head := sec[:r.off]
	seg, err := r.seg()
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, 0, len(recs))
	for k := range recs {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	koff, kw, width := int(seg[24]/8), int(seg[25]), int(binary.BigEndian.Uint32(seg[28:32]))
	if binary.BigEndian.Uint16(seg[4:6]) != 3 || binary.BigEndian.Uint64(seg[8:16]) != uint64(len(labels)) {
		t.Fatalf("segment version %d of %d records; %d were put", binary.BigEndian.Uint16(seg[4:6]), binary.BigEndian.Uint64(seg[8:16]), len(labels))
	}
	whole := bytes.Clone(seg[:48])
	for i, k := range labels {
		if rec := seg[48+i*(kw+width) : 48+(i+1)*(kw+width)]; string(rec) != k[koff:koff+kw]+string(recs[k]) {
			t.Fatalf("record %d is %x, want label %x's window and %x", i, rec, k, recs[k])
		}
		whole = append(append(whole, k...), recs[k]...)
	}
	whole = append(whole, make([]byte, -len(whole)&3)...)
	whole = append(whole, seg[len(seg)-4-4*((1<<seg[24])+1):len(seg)-4]...)
	crc := crc32.MakeTable(crc32.Castagnoli)
	binary.BigEndian.PutUint16(whole[4:6], 2)
	whole[25] = 0
	binary.BigEndian.PutUint64(whole[32:40], uint64(len(whole)+4))
	binary.BigEndian.PutUint32(whole[40:44], crc32.Checksum(whole[:40], crc))
	whole = binary.BigEndian.AppendUint32(whole, crc32.Checksum(whole[48:], crc))
	return append(appendSeg(bytes.Clone(head), whole), sec[r.off:]...)
}

// TestBuildByteIdentical: the build's seal phase runs on any number of
// workers, and the index is the same bytes whatever the number — the
// serial builder's bytes, since every RNG draw stays in the plan phase,
// in its old order, including the draws of a TSet attempt that
// overflowed and re-salted. Its labels and cells are those the v2
// digests were recorded from: segment v3 changed only how they are laid
// out.
func TestBuildByteIdentical(t *testing.T) {
	entries := identityEntries(500, 20)
	defer func(w int) { buildWorkers = w }(buildWorkers)
	for _, sh := range identityShapes {
		for _, suite := range prf.Suites() {
			want := identityDigests[sh.name][suite]
			for _, inner := range storage.Engines() {
				eng := &recordingEngine{Engine: inner}
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
					salt := uint64(0)
					if x, ok := idx.(*tsetIndex); ok {
						salt = x.salt
					}
					got, v2 := sha256.Sum256(sec), sha256.Sum256(wholeSection(t, sec, eng.recs))
					if hex.EncodeToString(got[:]) != want.digest || hex.EncodeToString(v2[:]) != want.v2 || salt != want.salt {
						t.Errorf("%s/%s/%s/%d workers: section %x, as v2 %x, salt %d; want %s, %s, salt %d",
							sh.name, suite, eng.Name(), workers, got[:8], v2[:8], salt, want.digest[:16], want.v2[:16], want.salt)
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
		postings += len(e.Data) / 8
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
