package sse

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/secenc"
	"rsse/internal/storage"
)

// cellLabel is the definition of the i-th cell label of a keyword, which
// the build's label stream and search's probes are both pinned to: the
// suite's PRF under the stag's location key at the 8-byte big-endian
// encoding of i — under suites 2 and 3 F(stag,'l',i), the stag itself
// being the location key — truncated to LabelSize.
func cellLabel(suite prf.Suite, loc prf.Key, i uint64) (l [LabelSize]byte) {
	var full [prf.KeySize]byte
	if suite.UsesF() {
		full = prf.F(loc, 'l', i)
	} else {
		full = prf.NewHasherSuite(suite, loc).EvalUint64(i)
	}
	copy(l[:], full[:LabelSize])
	return l
}

// refPad is suite 3's pad for cell number n of stag, spelled out from
// its definition (cellPad): the spare half of the label output
// F(stag,'l',n) if the cell has a label, then F(k_cell,'p',n<<32|b) for
// b = 0, 1, … under k_cell = F(stag,'e',0).
func refPad(stag Stag, n uint64, labelled bool, length int) []byte {
	var pad []byte
	if labelled {
		l := prf.F(prf.Key(stag), 'l', n)
		pad = append(pad, l[LabelSize:]...)
	}
	kc := prf.F(prf.Key(stag), 'e', 0)
	for b := uint64(0); len(pad) < length; b++ {
		v := prf.F(kc, 'p', n<<32|b)
		pad = append(pad, v[:]...)
	}
	return pad[:length]
}

func xorBytes(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// TestSearcherDecryptMatchesStdlibCTR pins the manual counter walk to
// the stdlib CTR stream for every cell shape the constructions produce:
// sub-block, exact-block and multi-block cells, across many counters —
// and under suite 3, where no cell is AES-encrypted, the pad walk of a
// labelled and an unlabelled cell to refPad.
func TestSearcherDecryptMatchesStdlibCTR(t *testing.T) {
	eachSuite(t, testSearcherDecryptMatchesStdlibCTR)
}

func testSearcherDecryptMatchesStdlibCTR(t *testing.T, suite prf.Suite) {
	rnd := mrand.New(mrand.NewSource(5))
	var stag Stag
	rnd.Read(stag[:])
	for _, n := range []int{1, 8, 15, 16, 17, 32, 48, 49, 129, 4096} {
		src := make([]byte, n)
		rnd.Read(src)
		for _, ctr := range []uint64{0, 1, 255, 1 << 32, ^uint64(0)} {
			s := cellSearcher{suite: suite}
			s.start(stag)
			s.label(ctr)
			got := s.decrypt([]byte("kept"), ctr, src)
			if string(got[:4]) != "kept" {
				t.Fatalf("n=%d ctr=%d: decrypt wrote over what dst held", n, ctr)
			}
			got = got[4:]
			unlabelled := s.decryptCell(nil, ctr, src, nil)
			s.finish()
			if suite == prf.SuiteBlockPad {
				if !bytes.Equal(got, xorBytes(src, refPad(stag, ctr, true, n))) ||
					!bytes.Equal(unlabelled, xorBytes(src, refPad(stag, ctr, false, n))) {
					t.Fatalf("n=%d ctr=%d: pad walk diverges from refPad", n, ctr)
				}
				continue
			}
			if !bytes.Equal(got, unlabelled) {
				t.Fatalf("n=%d ctr=%d: an AES cell decrypts differently without a label", n, ctr)
			}
			// Reference: the searcher's enc key is Derive(stag, "sse/enc")
			// truncated, exactly deriveStagKeys'.
			keys := deriveStagKeys(suite, prf.NewHasherSuite(suite, prf.Key{}), stag)
			want := make([]byte, n)
			nonce := secenc.NonceFromUint64(ctr)
			cipher.NewCTR(secenc.NewBlock(keys.enc), nonce[:]).XORKeyStream(want, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d ctr=%d: manual CTR diverges from crypto/cipher", n, ctr)
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
// republished extended. Suite 2 keeps no derived state: every walk is
// cold, derives every label with cellLabel itself, and leaves the cache
// as it found it.
func TestSearcherLabelMatchesCellLabel(t *testing.T) {
	eachSuite(t, testSearcherLabelMatchesCellLabel)
}

func testSearcherLabelMatchesCellLabel(t *testing.T, suite prf.Suite) {
	var stag Stag
	stag[7] = 9
	keys := deriveStagKeys(suite, prf.NewHasherSuite(suite, prf.Key{}), stag)
	ResetKernelCache()
	defer ResetKernelCache()
	walk := func(what string, n uint64, warm bool) {
		t.Helper()
		s := cellSearcher{suite: suite}
		s.start(stag)
		defer s.finish()
		if warm = warm && usesStagCache(suite); (s.ent != nil) != warm {
			t.Fatalf("%s: checked out warm=%v, want %v", what, s.ent != nil, warm)
		}
		for i := uint64(0); i < n; i++ {
			want := cellLabel(suite, keys.loc, i)
			if !bytes.Equal(s.label(i), want[:]) {
				t.Fatalf("%s: label %d diverges from cellLabel", what, i)
			}
		}
	}
	// expectRun checks how many labels the stag's entry holds (-1: no
	// entry) — under suite 2 never any.
	expectRun := func(what string, want int) {
		t.Helper()
		got := -1
		if e := stagCache[stagCacheIndex(&stag)].Load(); e != nil {
			got = e.labN
		}
		if !usesStagCache(suite) {
			want = -1
		}
		if got != want {
			t.Fatalf("%s: entry holds %d labels, want %d", what, got, want)
		}
	}
	walk("cold miss", 100, false)
	expectRun("first sight", -1)
	walk("admitted second sight", 3, false)
	expectRun("second sight", 3)
	walk("warm hit extended past its cached run", 100, true)
	expectRun("extended entry", cachedLabels)
	walk("warm hit on the full entry", 100, true)

	// The entry is its suite's alone: the other suite's searcher must
	// not run from it (its labels would be the wrong PRF's).
	other := cellSearcher{suite: otherSuite(suite)}
	other.start(stag)
	if other.ent != nil {
		t.Fatal("a searcher of the other suite checked out this suite's entry")
	}
	if want := cellLabel(suite, keys.loc, 0); bytes.Equal(other.label(0), want[:]) {
		t.Fatal("both suites derive the same label")
	}
	other.finish()
}

// probeLog is a storage engine whose backends record every key they are
// probed with, on the inner engine (nil: the default), and answer the
// corrupt key with its cell one byte short.
type probeLog struct {
	inner   storage.Engine
	keys    [][]byte
	corrupt []byte
}

func (p *probeLog) Name() string { return "probelog" }

func (p *probeLog) NewBuilder(keyLen, capacityHint int) storage.Builder {
	return probeLogBuilder{storage.OrDefault(p.inner).NewBuilder(keyLen, capacityHint), p}
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
	vals := [][]byte{nil}
	b.GetMany([][]byte{key}, vals)
	return vals[0], vals[0] != nil
}

func (b probeLogBackend) GetMany(keys, vals [][]byte) {
	for _, k := range keys {
		b.log.keys = append(b.log.keys, bytes.Clone(k))
	}
	b.Backend.GetMany(keys, vals)
	for i, k := range keys {
		if vals[i] != nil && b.log.corrupt != nil && bytes.Equal(k, b.log.corrupt) {
			vals[i] = vals[i][:len(vals[i])-1]
		}
	}
}

// TestSearchDerivesWhatItProbes: a search of an L-cell list asks for
// labels 0..L, in order, and nothing else — on a miss that is L+1 PRF
// evaluations, one per probe. label derives a label only inside the call
// that returns it (there is no window to fill ahead), so the probes
// counted at the storage seam are the evaluations; a warm search makes
// the same probes from its cached run.
func TestSearchDerivesWhatItProbes(t *testing.T) { eachSuite(t, testSearchDerivesWhatItProbes) }

func testSearchDerivesWhatItProbes(t *testing.T, suite prf.Suite) {
	var stag Stag
	stag[2] = 5
	keys := deriveStagKeys(suite, prf.NewHasherSuite(suite, prf.Key{}), stag)
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
			idx, err := tc.sch.Build([]Entry{idEntry(stag, ids)}, 8, mrand.New(mrand.NewSource(9)), log, suite)
			if err != nil {
				t.Fatalf("%s: %v", tc.sch.Name(), err)
			}
			ResetKernelCache()
			for _, sight := range []string{"cold", "second sight", "warm"} {
				log.keys = log.keys[:0]
				got, err := searchOne(idx, stag)
				if err != nil || len(got) != cells {
					t.Fatalf("%s/%d cells/%s: %d payloads, err %v", tc.sch.Name(), cells, sight, len(got), err)
				}
				if len(log.keys) != tc.probes {
					t.Fatalf("%s/%d cells/%s: %d probes, want %d", tc.sch.Name(), cells, sight, len(log.keys), tc.probes)
				}
				for i, k := range log.keys {
					if want := cellLabel(suite, keys.loc, uint64(i)); !bytes.Equal(k, want[:]) {
						t.Fatalf("%s/%d cells/%s: probe %d is not label %d", tc.sch.Name(), cells, sight, i, i)
					}
				}
			}
		}
	}
	ResetKernelCache()
}

// TestSearchResultOutlivesLaneSet: what a search returns is the
// caller's — copied out of the lanes' scratch, which goes back to the
// pool — so later searches, on the same lane sets, leave it as it was.
func TestSearchResultOutlivesLaneSet(t *testing.T) {
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(i)
	}
	var stag Stag
	entries := []Entry{idEntry(stag, ids)}
	for _, sch := range []Scheme{Basic{}, Packed{}, TSet{BucketCapacity: 64, Expansion: 1.5}, TwoLevel{}} {
		idx, err := sch.Build(entries, 8, mrand.New(mrand.NewSource(8)), nil, prf.SuiteBlockPad)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		held, _, err := idx.Search([]Stag{stag}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(held)
		var other Stag
		for round := range 200 {
			other[0] = byte(round)
			if _, _, err := idx.Search([]Stag{stag, other, stag}, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(held, want) || len(held) != 8*len(ids) {
			t.Fatalf("%s: a search's %d-byte answer changed under later searches", sch.Name(), len(held))
		}
	}
}

// TestSearchAllocsPerCell: steady-state Search cost must be bounded by
// a handful of allocations per call, not ~10 per cell as the naive path
// costs.
func TestSearchAllocsPerCell(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	eachSuite(t, testSearchAllocsPerCell)
}

func testSearchAllocsPerCell(t *testing.T, suite prf.Suite) {
	const postings = 64
	var stag Stag
	stag[0] = 1
	ids := make([]uint64, postings)
	for i := range ids {
		ids[i] = uint64(i)
	}
	entries := []Entry{idEntry(stag, ids)}
	rnd := mrand.New(mrand.NewSource(6))
	for _, sch := range []Scheme{Basic{}, Packed{}, TSet{BucketCapacity: 128, Expansion: 1.5}, TwoLevel{}} {
		idx, err := sch.Build(entries, 8, rnd, nil, suite)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		one := new(oneStag)
		f := func() {
			if _, err := one.search(idx, stag); err != nil {
				t.Fatal(err)
			}
		}
		f() // warm the pools and grow the searcher's data and ends
		// Budget: suite 2's AES key schedule — measured 0 (1 under suite
		// 2) since a search appends to the caller's reused data, 1 (2)
		// while it returned one array of item slices. The old path cost
		// ~10 allocs *per cell*, and growing the result by append cost
		// 6 more per search.
		n := testing.AllocsPerRun(100, f)
		t.Logf("%s: %v allocs per search of %d postings", sch.Name(), n, postings)
		if n > 1 {
			t.Errorf("%s: Search costs %v allocs for %d postings, want <= 1", sch.Name(), n, postings)
		}
	}
}

// TestDeriveStagKeysMatchKDF pins the build side's per-stag derivations
// — the working keys, and the build's label and bucket streams — to the
// labelled KDF the wire formats were defined with, so built indexes stay
// byte-compatible, and the label stream to cellLabel, which search
// probes with.
//
// Suites 0 and 1 evaluate the HMAC: the working keys are the KDF's
// sse/loc and sse/enc, label i the PRF under sse/loc at BE64(i), and
// TSet's bucket key the KDF's sse/bkt/salt. Suite 2 derives the same
// roles with F under its four tags and no location key: labels are
// F(stag,'l',i), the cell key F(stag,'e',0), TSet's bucket key
// F(stag,'b',salt) and bucket index F(bkt,'b',i). Suite 3 is suite 2
// with no AES cell key; the label stream's spare halves, the first pad
// bytes of its cells, are the other half of each label output.
func TestDeriveStagKeysMatchKDF(t *testing.T) {
	eachSuite(t, testDeriveStagKeysMatchKDF)
}

func testDeriveStagKeysMatchKDF(t *testing.T, suite prf.Suite) {
	const records, buckets = 5, 1000
	rnd := mrand.New(mrand.NewSource(8))
	sl := newStagSealer(suite)
	defer sl.release()
	for i := 0; i < 20; i++ {
		var stag Stag
		rnd.Read(stag[:])
		salt := uint64(i)
		var enc, loc, bkt prf.Key
		prfAt := func(k prf.Key, tag byte, x uint64) [prf.KeySize]byte { return prf.F(k, tag, x) }
		switch {
		case suite == prf.SuiteBlockPad: // no AES cell key
			loc, bkt = prf.Key(stag), prf.F(prf.Key(stag), 'b', salt)
		case suite.UsesF():
			enc, loc, bkt = prf.F(prf.Key(stag), 'e', 0), prf.Key(stag), prf.F(prf.Key(stag), 'b', salt)
		default:
			h := prf.NewHasherSuite(suite, prf.Key(stag))
			enc, loc, bkt = h.Derive("sse/enc"), h.Derive("sse/loc"), h.DeriveN("sse/bkt", salt)
			prfAt = func(k prf.Key, _ byte, x uint64) [prf.KeySize]byte { return prf.NewHasherSuite(suite, k).EvalUint64(x) }
		}
		if suite == prf.SuiteSHA512 && (loc != prf.Derive(prf.Key(stag), "sse/loc") || bkt != prf.DeriveN(prf.Key(stag), "sse/bkt", salt)) {
			t.Fatalf("stag %d: the suite-0 hasher's KDF diverges from prf.Derive", i)
		}

		keys := deriveStagKeys(suite, prf.NewHasherSuite(suite, prf.Key{}), stag)
		if keys.loc != loc || !bytes.Equal(keys.enc[:], enc[:secenc.KeySize]) {
			t.Fatalf("stag %d: working keys diverge from the KDF", i)
		}
		if got := sl.key(stag); got != keys.enc {
			t.Fatalf("stag %d: the sealer's cell key diverges from deriveStagKeys", i)
		}
		var labels, spare [records][LabelSize]byte
		sl.labels(labels[:], spare[:])
		bkts := make([]int, records)
		sl.buckets(salt, buckets, bkts)
		for j := range uint64(records) {
			want := prfAt(loc, 'l', j)
			if search := cellLabel(suite, loc, j); !bytes.Equal(labels[j][:], want[:LabelSize]) || search != labels[j] {
				t.Fatalf("stag %d: label %d diverges from the PRF or from cellLabel", i, j)
			}
			if !bytes.Equal(spare[j][:], want[LabelSize:]) {
				t.Fatalf("stag %d: label %d's spare half diverges from the PRF", i, j)
			}
			v := prfAt(bkt, 'b', j)
			if want := int(binary.BigEndian.Uint64(v[:8]) % buckets); bkts[j] != want {
				t.Fatalf("stag %d: bucket %d is %d, want %d", i, j, bkts[j], want)
			}
		}
	}
}

// TestSectionSuiteIsTheCallers: a section does not record the PRF
// suite its labels were derived under — the enclosing container does —
// so the same section bytes opened under the build suite answer, and
// under the other suite find nothing (every probe is at a label the
// builder never wrote) without failing.
func TestSectionSuiteIsTheCallers(t *testing.T) {
	entries := benchEntries(200, 20)
	eachSuite(t, func(t *testing.T, suite prf.Suite) {
		for _, sch := range benchConstructions() {
			idx, err := sch.Build(entries, 8, mrand.New(mrand.NewSource(7)), nil, suite)
			if err != nil {
				t.Fatalf("%s: %v", sch.Name(), err)
			}
			sec, err := MarshalSection(idx)
			if err != nil {
				t.Fatalf("%s: %v", sch.Name(), err)
			}
			same, err := OpenSection(sec, suite)
			if err != nil {
				t.Fatalf("%s: %v", sch.Name(), err)
			}
			other, err := OpenSection(sec, otherSuite(suite))
			if err != nil {
				t.Fatalf("%s: %v", sch.Name(), err)
			}
			for _, e := range entries {
				got, err := searchOne(same, e.Stag)
				if err != nil || len(got) != len(e.Data)/8 {
					t.Fatalf("%s: build suite found %d of %d payloads, err %v",
						sch.Name(), len(got), len(e.Data)/8, err)
				}
				if got, err := searchOne(other, e.Stag); err != nil || len(got) != 0 {
					t.Fatalf("%s: other suite found %d payloads, err %v", sch.Name(), len(got), err)
				}
			}
		}
	})
	ResetKernelCache()
}
