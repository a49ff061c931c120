package sse

import (
	"bytes"
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/secenc"
	"rsse/internal/storage"
)

// TestSearcherDecryptMatchesStdlibCTR pins the manual counter walk to
// the stdlib CTR stream for every cell shape the constructions produce:
// sub-block, exact-block and multi-block cells, across many counters.
func TestSearcherDecryptMatchesStdlibCTR(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(5))
	var stag Stag
	rnd.Read(stag[:])
	for _, n := range []int{1, 8, 15, 16, 17, 32, 129, 4096} {
		src := make([]byte, n)
		rnd.Read(src)
		for _, ctr := range []uint64{0, 1, 255, 1 << 32, ^uint64(0)} {
			s := getCellSearcher(stag)
			got := s.decrypt(ctr, src)
			putCellSearcher(s)
			// Reference: the searcher's enc key is Derive(stag, "sse/enc")
			// truncated, exactly deriveStagKeys'.
			keys := deriveStagKeys(prf.NewHasher(prf.Key{}), stag)
			want := secenc.XORKeyStreamCTR(keys.enc, secenc.NonceFromUint64(ctr), src)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d ctr=%d: manual CTR diverges from secenc", n, ctr)
			}
		}
	}
}

// TestSearcherLabelMatchesCellLabel pins the searcher's label stream to
// the build side's cellLabel on every way a stag can be checked out:
// a cold miss (every label derived), the admitted second sight (derived
// again, a short run published), and warm hits whose cached run is
// shorter than the walk — the cache answers the head, the hasher
// restored from the entry's snapshot derives the tail, and the entry is
// republished extended.
func TestSearcherLabelMatchesCellLabel(t *testing.T) {
	var stag Stag
	stag[7] = 9
	keys := deriveStagKeys(prf.NewHasher(prf.Key{}), stag)
	ResetKernelCache()
	defer ResetKernelCache()
	walk := func(what string, n uint64, warm bool) {
		t.Helper()
		s := getCellSearcher(stag)
		defer putCellSearcher(s)
		if (s.ent != nil) != warm {
			t.Fatalf("%s: checked out warm=%v, want %v", what, s.ent != nil, warm)
		}
		for i := uint64(0); i < n; i++ {
			want := cellLabel(keys.loc, i)
			if !bytes.Equal(s.label(i), want[:]) {
				t.Fatalf("%s: label %d diverges from cellLabel", what, i)
			}
		}
	}
	cachedRun := func() int {
		if e := stagCache[stagCacheIndex(&stag)].Load(); e != nil {
			return e.labN
		}
		return -1
	}
	walk("cold miss", 100, false)
	if n := cachedRun(); n != -1 {
		t.Fatalf("first sight published an entry (%d labels)", n)
	}
	walk("admitted second sight", 3, false)
	if n := cachedRun(); n != 3 {
		t.Fatalf("second sight published %d labels, want the 3 it derived", n)
	}
	walk("warm hit extended past its cached run", 100, true)
	if n := cachedRun(); n != cachedLabels {
		t.Fatalf("extended entry holds %d labels, want %d", n, cachedLabels)
	}
	walk("warm hit on the full entry", 100, true)
}

// probeLog is a storage engine whose backends record every key they are
// probed with.
type probeLog struct{ keys [][]byte }

func (p *probeLog) Name() string { return "probelog" }

func (p *probeLog) NewBuilder(keyLen, capacityHint int) storage.Builder {
	return probeLogBuilder{storage.Map{}.NewBuilder(keyLen, capacityHint), p}
}

type probeLogBuilder struct {
	storage.Builder
	log *probeLog
}

func (b probeLogBuilder) Seal() (storage.Backend, error) {
	be, err := b.Builder.Seal()
	return probeLogBackend{be, b.log}, err
}

type probeLogBackend struct {
	storage.Backend
	log *probeLog
}

func (b probeLogBackend) Get(key []byte) ([]byte, bool) {
	b.log.keys = append(b.log.keys, bytes.Clone(key))
	return b.Backend.Get(key)
}

// TestSearchDerivesWhatItProbes: a search of an L-cell list asks for
// labels 0..L, in order, and nothing else — on a miss that is L+1 PRF
// evaluations, one per probe. label derives a label only inside the call
// that returns it (there is no window to fill ahead), so the probes
// counted at the storage seam are the evaluations; a warm search makes
// the same probes from its cached run.
func TestSearchDerivesWhatItProbes(t *testing.T) {
	var stag Stag
	stag[2] = 5
	keys := deriveStagKeys(prf.NewHasher(prf.Key{}), stag)
	const blockSize = 4
	for _, cells := range []int{0, 1, 3, cachedLabels, 20} {
		ids := make([]uint64, cells)
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		for _, tc := range []struct {
			sch    Scheme
			probes int
		}{
			{Basic{}, cells + 1},
			{TSet{BucketCapacity: 64, Expansion: 1.5}, cells + 1},
			{Packed{BlockSize: blockSize}, (cells+blockSize-1)/blockSize + 1},
		} {
			log := &probeLog{}
			idx, err := tc.sch.Build([]Entry{EntryFromIDs(stag, ids)}, 8, mrand.New(mrand.NewSource(9)), log)
			if err != nil {
				t.Fatalf("%s: %v", tc.sch.Name(), err)
			}
			ResetKernelCache()
			for _, sight := range []string{"cold", "second sight", "warm"} {
				log.keys = log.keys[:0]
				got, err := idx.Search(stag)
				if err != nil || len(got) != cells {
					t.Fatalf("%s/%d cells/%s: %d payloads, err %v", tc.sch.Name(), cells, sight, len(got), err)
				}
				if len(log.keys) != tc.probes {
					t.Fatalf("%s/%d cells/%s: %d probes, want %d", tc.sch.Name(), cells, sight, len(log.keys), tc.probes)
				}
				for i, k := range log.keys {
					if want := cellLabel(keys.loc, uint64(i)); !bytes.Equal(k, want[:]) {
						t.Fatalf("%s/%d cells/%s: probe %d is not label %d", tc.sch.Name(), cells, sight, i, i)
					}
				}
			}
		}
	}
	ResetKernelCache()
}

// TestSearcherArenaDisjoint: regions handed out before a searcher goes
// back to the pool must never be re-sliced by later checkouts.
func TestSearcherArenaDisjoint(t *testing.T) {
	var stag Stag
	var held [][]byte
	var want []byte
	for round := 0; round < 200; round++ {
		s := getCellSearcher(stag)
		p := s.alloc(24)
		for i := range p {
			p[i] = byte(round)
		}
		held = append(held, p)
		want = append(want, byte(round))
		putCellSearcher(s)
	}
	for i, p := range held {
		for _, b := range p {
			if b != want[i] {
				t.Fatalf("arena region %d clobbered by a later checkout", i)
			}
		}
	}
}

// TestSearchAllocsPerCell: steady-state Search cost must be bounded by
// a handful of allocations per call (result headers and arena chunks),
// not ~10 per cell as the naive path costs.
func TestSearchAllocsPerCell(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	const postings = 64
	var stag Stag
	stag[0] = 1
	payloads := make([][]byte, postings)
	for i := range payloads {
		payloads[i] = U64Payload(uint64(i))
	}
	entries := []Entry{{Stag: stag, Payloads: payloads}}
	rnd := mrand.New(mrand.NewSource(6))
	for _, sch := range []Scheme{Basic{}, Packed{}, TSet{BucketCapacity: 128, Expansion: 1.5}, TwoLevel{}} {
		idx, err := sch.Build(entries, 8, rnd, nil)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		f := func() {
			if _, err := idx.Search(stag); err != nil {
				t.Fatal(err)
			}
		}
		f() // warm pools and arena
		// Budget: result [][]byte growth + AES schedule + amortized arena
		// chunks. The old path cost ~10 allocs *per cell*; 12 per search
		// total is the regression tripwire.
		if n := testing.AllocsPerRun(100, f); n > 12 {
			t.Errorf("%s: Search costs %v allocs for %d postings, want <= 12", sch.Name(), n, postings)
		}
	}
}

// TestDeriveStagKeysMatchKDF pins the build side's one-hasher key
// derivation to the labelled KDF the wire formats were defined with —
// built indexes stay byte-compatible — and checks the hasher is left
// keyed to the stag, which TSet's bucket-key derivation relies on.
func TestDeriveStagKeysMatchKDF(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(8))
	h := prf.NewHasher(prf.Key{})
	for i := 0; i < 20; i++ {
		var stag Stag
		rnd.Read(stag[:])
		keys := deriveStagKeys(h, stag)
		enc := prf.Derive(prf.Key(stag), "sse/enc")
		if keys.loc != prf.Derive(prf.Key(stag), "sse/loc") || !bytes.Equal(keys.enc[:], enc[:secenc.KeySize]) {
			t.Fatalf("stag %d: working keys diverge from the KDF", i)
		}
		if salt := uint64(i); h.DeriveN("sse/bkt", salt) != prf.DeriveN(prf.Key(stag), "sse/bkt", salt) {
			t.Fatalf("stag %d: bucket key diverges from the KDF", i)
		}
	}
}
