package sse

import (
	"bytes"
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/secenc"
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

// TestSearcherLabelMatchesCellLabel pins the rekeyed hasher's label
// derivation to the build side's cellLabel.
func TestSearcherLabelMatchesCellLabel(t *testing.T) {
	var stag Stag
	stag[7] = 9
	keys := deriveStagKeys(prf.NewHasher(prf.Key{}), stag)
	s := getCellSearcher(stag)
	defer putCellSearcher(s)
	for i := uint64(0); i < 100; i++ {
		want := cellLabel(keys.loc, i)
		if !bytes.Equal(s.label(i), want[:]) {
			t.Fatalf("label %d diverges from cellLabel", i)
		}
	}
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
