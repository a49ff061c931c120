package sse

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/race"
	"rsse/internal/storage"
)

// TestSearchLockstep: searching a request's stags in lockstep lanes is
// searching each stag alone, on every construction × engine × suite,
// for requests shorter than, as long as, just over and several times the
// lane count. The requests mix empty lists, unknown stags, duplicates
// and lists longer than a cache entry's labels. For each:
//   - every group is byte-identical to a search of its stag as a slice
//     of one, with no spare capacity;
//   - the backend is probed at the same multiset of keys, and each
//     stag's keys in the order a search of it alone probes them;
//   - a cell found corrupt in the middle of the request fails it with
//     ErrCorrupt, puts the lane set back (a failing search allocates no
//     lane set), and the same request then answers correctly.
func TestSearchLockstep(t *testing.T) {
	eachSuite(t, func(t *testing.T, suite prf.Suite) {
		for _, sch := range []Scheme{Basic{}, Packed{BlockSize: 2}, TSet{BucketCapacity: 64, Expansion: 1.5}, TwoLevel{InlineCap: 4, BlockSize: 4}} {
			for _, ne := range namedEngines(t) {
				t.Run(sch.Name()+"/"+ne.name, func(t *testing.T) {
					testSearchLockstep(t, suite, sch, ne.eng)
				})
			}
		}
	})
	ResetKernelCache()
}

func testSearchLockstep(t *testing.T, suite prf.Suite, sch Scheme, eng storage.Engine) {
	rnd := mrand.New(mrand.NewSource(int64(suite) + 61))
	stagOf := func() (s Stag) {
		rnd.Read(s[:])
		return s
	}
	// Present stags with lists of 0 cells up to well past cachedLabels
	// (packed at two postings a block: 10 blocks for 20 postings), and
	// stags the index does not hold.
	var present, unknown []Stag
	var entries []Entry
	for i, n := range []int{0, 1, 2, 3, 7, cachedLabels, cachedLabels + 1, 20, 33, 5, 4} {
		ids := make([]uint64, n)
		for j := range ids {
			ids[j] = uint64(i<<8 | j)
		}
		entries = append(entries, idEntry(stagOf(), ids))
		present = append(present, entries[i].Stag)
	}
	for range 4 {
		unknown = append(unknown, stagOf())
	}
	log := &probeLog{inner: eng}
	idx, err := sch.Build(entries, 8, mrand.New(mrand.NewSource(62)), log, suite)
	if err != nil {
		t.Fatal(err)
	}
	// alone[s] is what stag s answers and probes searched by itself.
	type walk struct {
		group  [][]byte
		probes [][]byte
	}
	alone := map[Stag]walk{}
	for _, s := range append(append([]Stag(nil), present...), unknown...) {
		log.keys = nil
		g, err := searchOne(idx, s)
		if err != nil {
			t.Fatal(err)
		}
		alone[s] = walk{g, log.keys}
	}

	for _, n := range []int{0, 1, lanes - 1, lanes, lanes + 1, 3*lanes + 5} {
		// The head of every request longer than two: an empty list, an
		// unknown stag, a long list and that list again; then any stags,
		// duplicates likely.
		stags := []Stag{present[0], unknown[0], present[8], present[8]}[:min(n, 4)]
		for len(stags) < n {
			if rnd.Intn(3) == 0 {
				stags = append(stags, unknown[rnd.Intn(len(unknown))])
			} else {
				stags = append(stags, present[rnd.Intn(len(present))])
			}
		}
		what := fmt.Sprintf("%d stags", n)

		log.keys = nil
		w := idx.Width()
		kept := bytes.Repeat([]byte("k"), w) // one item the caller holds
		data, ends, err := idx.Search(stags, kept, []int{1})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(ends) != 1+n || ends[0] != 1 || !bytes.Equal(data[:w], kept) || len(data) != ends[n]*w {
			t.Fatalf("%s: %d ends after the caller's one over %d bytes, want %d, the caller's kept", what, len(ends)-1, len(data), n)
		}
		for k, s := range stags {
			lo, hi := ends[k], ends[1+k]
			if want := alone[s].group; hi-lo != len(want) || !bytes.Equal(data[lo*w:hi*w], bytes.Join(want, nil)) {
				t.Fatalf("%s: group %d has %d items, alone %d, or they differ", what, k, hi-lo, len(want))
			}
		}
		checkProbes(t, what, stags, log.keys, func(s Stag) [][]byte { return alone[s].probes })

		if n < lanes {
			continue
		}
		// Corrupt the last cell of a long list walked by a lane in the
		// middle of the request: 2lev's walk is its first probe, every
		// other construction's the probe before its miss.
		bad := present[8]
		stags[n/2] = bad
		search := func() {
			if _, _, err := idx.Search(stags, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		whole := testing.AllocsPerRun(20, search)
		probes := alone[bad].probes
		log.corrupt = probes[max(len(probes)-2, 0)]
		fail := func() {
			if _, _, err := idx.Search(stags, nil, nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: corrupt cell: err %v, want ErrCorrupt", what, err)
			}
		}
		fail()
		if !race.Enabled {
			// A lane set is a struct and two hashers per lane, hundreds of
			// objects: a failing search that left its set out of the pool
			// would allocate a new one per call, where it should cost no
			// more than the whole request succeeding, and its error.
			if a := testing.AllocsPerRun(20, fail); a > whole+4 {
				t.Errorf("%s: a failing search allocates %v objects, a whole one %v: a lane set is not going back to the pool", what, a, whole)
			}
		}
		log.corrupt = nil
		_, ends, err = idx.Search(stags, nil, nil)
		if err != nil || len(ends) != n {
			t.Fatalf("%s: after a corrupt cell: %d groups, err %v", what, len(ends), err)
		}
		lo := 0
		for k, s := range stags {
			if ends[k]-lo != len(alone[s].group) {
				t.Fatalf("%s: after a corrupt cell: group %d has %d items, want %d", what, k, ends[k]-lo, len(alone[s].group))
			}
			lo = ends[k]
		}
	}
}

// checkProbes asserts that got is the probes of every stag in stags,
// each searched alone (alone), interleaved: the same multiset of keys,
// and each stag's keys in its own order. A stag listed m times is m
// walks of the same keys; a key names its walk's position, since one
// stag's labels are distinct.
func checkProbes(t *testing.T, what string, stags []Stag, got [][]byte, alone func(Stag) [][]byte) {
	t.Helper()
	type pos struct {
		stag Stag
		at   int
	}
	where := map[string]pos{}
	next := map[Stag][]int{} // per stag: each walk's next position
	want := 0
	for _, s := range stags {
		for i, k := range alone(s) {
			where[string(k)] = pos{s, i}
		}
		next[s] = append(next[s], 0)
		want += len(alone(s))
	}
	if len(got) != want {
		t.Fatalf("%s: %d probes, alone the stags make %d", what, len(got), want)
	}
	for _, k := range got {
		p, ok := where[string(k)]
		if !ok {
			t.Fatalf("%s: probe %x is no stag's alone", what, k)
		}
		walks, advanced := next[p.stag], false
		for w := range walks {
			if walks[w] == p.at {
				walks[w]++
				advanced = true
				break
			}
		}
		if !advanced {
			t.Fatalf("%s: probe %d of a stag's walk came out of its order", what, p.at)
		}
	}
	for s, walks := range next {
		for _, at := range walks {
			if at != len(alone(s)) {
				t.Fatalf("%s: a walk stopped at probe %d of %d", what, at, len(alone(s)))
			}
		}
	}
}
