package sse

import (
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"unsafe"

	"rsse/internal/prf"
	"rsse/internal/race"
)

// collidingStags returns two stags that share a cache slot (same index
// bytes) but differ in the doorkeeper's fingerprint bytes and beyond.
func collidingStags(seed int64) (a, b Stag) {
	rnd := mrand.New(mrand.NewSource(seed))
	rnd.Read(a[:])
	rnd.Read(b[:])
	copy(b[:8], a[:8])
	if stagCacheIndex(&a) != stagCacheIndex(&b) || stagFingerprint(&a) == stagFingerprint(&b) {
		panic("collidingStags: bad construction")
	}
	return a, b
}

// resultIDs decodes a search result into sorted ids.
func resultIDs(payloads [][]byte) []uint64 {
	out := make([]uint64, len(payloads))
	for i, p := range payloads {
		out[i] = binary.BigEndian.Uint64(p)
	}
	return sortedCopy(out)
}

// TestStagCacheAdmission walks one stag through the cache's states —
// cold, second sight, warm, evicted by a colliding stag, readmitted —
// and an absent stag through the same, on every construction: the
// payloads never change and the counters move exactly as the policy
// says (a first sight is a miss, a second a miss plus an admission, a
// third a hit; a one-shot collider evicts nothing).
func TestStagCacheAdmission(t *testing.T) {
	for _, suite := range testSuites {
		if usesStagCache(suite) {
			testStagCacheAdmission(t, suite)
		}
	}
}

// TestBlockSuiteBypassesStagCache: a search under suite 2 or 3 has no
// derived state worth keeping, so it neither reads nor writes the cache, the
// doorkeeper or their counters. Both tables are poisoned first — the
// stag's slot holds an entry that names this stag and suite with labels
// no PRF produced, and the doorkeeper already holds its fingerprint — so
// a search that consulted either would answer wrongly, count a hit, or
// admit; afterwards slot, fingerprint and counters are what they were,
// on every construction, for an absent stag and a present one.
func TestBlockSuiteBypassesStagCache(t *testing.T) {
	for _, suite := range []prf.Suite{prf.SuiteBlock, prf.SuiteBlockPad} {
		t.Run(suite.String(), func(t *testing.T) { testBlockSuiteBypassesStagCache(t, suite) })
	}
}

func testBlockSuiteBypassesStagCache(t *testing.T, suite prf.Suite) {
	a, c := collidingStags(51)
	var absent Stag
	absent[1], absent[8] = 0xAB, 2
	wantA, wantC := []uint64{1, 2, 3}, []uint64{9}
	for _, sch := range benchConstructions() {
		idx, err := sch.Build([]Entry{idEntry(a, wantA), idEntry(c, wantC)}, 8, mrand.New(mrand.NewSource(52)), nil, suite)
		if err != nil {
			t.Fatal(err)
		}
		ResetKernelCache()
		poison := map[Stag]*stagState{}
		for _, stag := range []Stag{a, absent} {
			e := &stagState{stag: stag, suite: suite, labN: cachedLabels}
			e.labs[0][0] = 0xFF
			poison[stag] = e
			stagCache[stagCacheIndex(&stag)].Store(e)
			stagSeen[stagCacheIndex(&stag)].Store(stagFingerprint(&stag))
		}
		for round := 0; round < 3; round++ {
			for stag, want := range map[Stag][]uint64{a: wantA, c: wantC, absent: nil} {
				got, err := searchOne(idx, stag)
				if err != nil || !equalIDs(resultIDs(got), want) {
					t.Fatalf("%s: round %d: got ids %v, err %v, want %v", sch.Name(), round, resultIDs(got), err, want)
				}
			}
		}
		for stag, e := range poison {
			i := stagCacheIndex(&stag)
			if stagCache[i].Load() != e || stagSeen[i].Load() != stagFingerprint(&stag) {
				t.Errorf("%s: a %v search wrote the cache slot or the doorkeeper", sch.Name(), suite)
			}
		}
		hits, misses := KernelCacheStats()
		if adm := KernelCacheAdmissions(); hits != 0 || misses != 0 || adm != 0 {
			t.Errorf("%s: %v searches moved the counters: %d hits, %d misses, %d admissions", sch.Name(), suite, hits, misses, adm)
		}
	}
	ResetKernelCache()
}

// testStagCacheAdmission runs one subtest per construction — named by
// the construction alone under suite 0, as before suites existed.
func testStagCacheAdmission(t *testing.T, suite prf.Suite) {
	a, c := collidingStags(21)
	var empty Stag // in no index, on a slot of its own
	empty[0], empty[9] = 0xEE, 1
	wantA := []uint64{1, 2, 3, 4, 5}
	wantC := []uint64{70, 80}
	for _, sch := range benchConstructions() {
		name := sch.Name()
		if suite != prf.SuiteSHA512 {
			name += "/" + suite.String()
		}
		t.Run(name, func(t *testing.T) {
			idx, err := sch.Build([]Entry{idEntry(a, wantA), idEntry(c, wantC)},
				8, mrand.New(mrand.NewSource(22)), nil, suite)
			if err != nil {
				t.Fatal(err)
			}
			// The same stag with an empty list: an index that lacks it.
			without, err := sch.Build([]Entry{idEntry(c, wantC)}, 8, mrand.New(mrand.NewSource(23)), nil, suite)
			if err != nil {
				t.Fatal(err)
			}
			ResetKernelCache()
			var hits, misses, adms uint64
			step := func(what string, x Index, stag Stag, want []uint64, dHit, dMiss, dAdm uint64) {
				t.Helper()
				got, err := searchOne(x, stag)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if ids := resultIDs(got); !equalIDs(ids, want) {
					t.Fatalf("%s: got ids %v, want %v", what, ids, want)
				}
				hits, misses, adms = hits+dHit, misses+dMiss, adms+dAdm
				h, m := KernelCacheStats()
				if ad := KernelCacheAdmissions(); h != hits || m != misses || ad != adms {
					t.Fatalf("%s: counters hits/misses/admissions = %d/%d/%d, want %d/%d/%d",
						what, h, m, ad, hits, misses, adms)
				}
			}
			entry := func(stag Stag) *stagState { return stagCache[stagCacheIndex(&stag)].Load() }

			step("A cold", idx, a, wantA, 0, 1, 0)
			if entry(a) != nil {
				t.Fatal("first sight published an entry")
			}
			step("A second sight", idx, a, wantA, 0, 1, 1)
			if e := entry(a); e == nil || e.stag != a || e.suite != suite || e.blk == nil {
				t.Fatalf("second sight of a non-empty stag: entry %+v, want A's with a cell cipher", e)
			}
			step("A warm", idx, a, wantA, 1, 0, 0)

			// One sight of the collider must not evict A.
			step("C cold", idx, c, wantC, 0, 1, 0)
			step("A warm after one-shot collider", idx, a, wantA, 1, 0, 0)
			// Hits do not touch the doorkeeper: it still holds C, whose
			// second sight is admitted and evicts A.
			step("C second sight", idx, c, wantC, 0, 1, 1)
			step("C warm", idx, c, wantC, 1, 0, 0)
			step("A after eviction", idx, a, wantA, 0, 1, 0)
			if e := entry(a); e == nil || e.stag != c {
				t.Fatal("A's first sight after eviction displaced C")
			}
			step("A readmitted", idx, a, wantA, 0, 1, 1)
			step("A warm again", idx, a, wantA, 1, 0, 0)

			// Empty list: admitted at second sight too, without a cipher.
			step("empty cold", idx, empty, nil, 0, 1, 0)
			step("empty second sight", idx, empty, nil, 0, 1, 1)
			if e := entry(empty); e == nil || e.blk != nil {
				t.Fatalf("entry of an empty list: %+v, want one without a cell cipher", e)
			}
			step("empty warm", idx, empty, nil, 1, 0, 0)

			// Empty vs non-empty list for one stag: an entry admitted
			// without a cipher must still decrypt when a probe hits, and
			// keep the cipher afterwards.
			ResetKernelCache()
			hits, misses, adms = 0, 0, 0
			step("A on the index without it, cold", without, a, nil, 0, 1, 0)
			step("A on the index without it, admitted", without, a, nil, 0, 1, 1)
			if e := entry(a); e == nil || e.blk != nil {
				t.Fatal("empty-list admission carries a cipher")
			}
			step("A warm, first hit", idx, a, wantA, 1, 0, 0)
			if e := entry(a); e == nil || e.blk == nil {
				t.Fatal("a warm search that hit did not republish its cipher")
			}
			step("A warm, cached cipher", idx, a, wantA, 1, 0, 0)
			step("A back on the index without it", without, a, nil, 1, 0, 0)
		})
	}
	ResetKernelCache()
}

// TestStagStateSize: admissions accumulate, so a cache entry's bytes are
// resident-set bytes. It holds a stag, two chaining values and eight
// 16-byte labels: 320 bytes, exactly an allocator size class (it was 896
// when it held two marshaled digests and 32-byte labels).
func TestStagStateSize(t *testing.T) {
	if sz := unsafe.Sizeof(stagState{}); sz > 320 {
		t.Errorf("stagState is %d bytes, want <= 320", sz)
	} else {
		t.Logf("stagState is %d bytes", sz)
	}
}

// TestResetKernelCacheClearsDoorkeeper: after a reset a stag's next
// sight is a first sight again.
func TestResetKernelCacheClearsDoorkeeper(t *testing.T) {
	var stag Stag
	stag[3], stag[10] = 7, 7
	idx, err := Basic{}.Build([]Entry{idEntry(stag, []uint64{9})}, 8, mrand.New(mrand.NewSource(1)), nil, prf.SuiteSHA512)
	if err != nil {
		t.Fatal(err)
	}
	ResetKernelCache()
	for round := 0; round < 2; round++ {
		if _, err := searchOne(idx, stag); err != nil {
			t.Fatal(err)
		}
		if ad := KernelCacheAdmissions(); ad != 0 {
			t.Fatalf("round %d: a first sight was admitted (%d admissions)", round, ad)
		}
		ResetKernelCache()
	}
}

// TestColdStagAllocs: a search of a never-seen stag with an empty list —
// the Constant schemes' common case — allocates nothing: no cache
// entry (first sight), no AES schedule (no probe hit), no result.
func TestColdStagAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	eachSuite(t, testColdStagAllocs)
}

func testColdStagAllocs(t *testing.T, suite prf.Suite) {
	entries := benchEntries(1000, 100)
	rnd := mrand.New(mrand.NewSource(31))
	for _, sch := range benchConstructions() {
		idx, err := sch.Build(entries, 8, mrand.New(mrand.NewSource(32)), nil, suite)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		var stag Stag
		one := new(oneStag)
		search := func() {
			rnd.Read(stag[:])
			if got, err := one.search(idx, stag); err != nil || got != 0 {
				t.Fatalf("%s: fresh stag returned %d payloads, err %v", sch.Name(), got, err)
			}
		}
		search() // warm the searcher pool
		if n := testing.AllocsPerRun(500, search); n != 0 {
			t.Errorf("%s: search of a never-seen empty stag allocates %v objects, want 0", sch.Name(), n)
		}
	}
}

// TestStagCacheSlotContention hammers one cache slot with two colliding
// stags from 8 goroutines: admissions, evictions, republications and
// doorkeeper swaps all race on the slot, and every search must still
// return its own stag's payloads. Run under -race.
func TestStagCacheSlotContention(t *testing.T) { eachSuite(t, testStagCacheSlotContention) }

func testStagCacheSlotContention(t *testing.T, suite prf.Suite) {
	a, c := collidingStags(41)
	want := map[Stag][]uint64{a: {1, 2, 3}, c: {10, 20, 30, 40}}
	for _, sch := range benchConstructions() {
		idx, err := sch.Build([]Entry{idEntry(a, want[a]), idEntry(c, want[c])},
			8, mrand.New(mrand.NewSource(42)), nil, suite)
		if err != nil {
			t.Fatal(err)
		}
		ResetKernelCache()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rnd := mrand.New(mrand.NewSource(int64(g)))
				for i := 0; i < 2000; i++ {
					stag := a
					if rnd.Intn(2) == 0 {
						stag = c
					}
					got, err := searchOne(idx, stag)
					if err == nil && !equalIDs(resultIDs(got), want[stag]) {
						err = fmt.Errorf("%s: goroutine %d search %d returned ids %v", sch.Name(), g, i, resultIDs(got))
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		lookups := uint64(8 * 2000)
		if !usesStagCache(suite) {
			lookups = 0
		}
		if hits, misses := KernelCacheStats(); hits+misses != lookups {
			t.Errorf("%s: %d hits + %d misses, want %d lookups", sch.Name(), hits, misses, lookups)
		}
	}
	ResetKernelCache()
}
