package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// allSuites is every PRF suite this build implements.
var allSuites = prf.Suites()

// withBuildSuite is the test-only hook that builds a kind's index under
// a suite other than its defaultSuite row.
func withBuildSuite(c *Client, s prf.Suite) *Client {
	c.suite = s
	return c
}

// wireServer answers from x with every message crossing its wire codec:
// Meta is re-read from the serialized header, the trapdoor and the
// response are marshaled and parsed back. (The TCP framing around these
// bytes is the transport package's to test.)
type wireServer struct {
	x   *Index
	hdr []byte
}

func (s wireServer) MetaContext(context.Context) (IndexMeta, error) { return PeekMeta(s.hdr) }

func (s wireServer) SearchContext(ctx context.Context, t *Trapdoor) (*Response, error) {
	wire, err := t.MarshalBinary()
	if err != nil {
		return nil, err
	}
	back, err := UnmarshalTrapdoor(wire)
	if err != nil {
		return nil, err
	}
	resp, err := s.x.SearchContext(ctx, back)
	if err != nil {
		return nil, err
	}
	if wire, err = resp.MarshalBinary(); err != nil {
		return nil, err
	}
	return UnmarshalResponse(wire)
}

func (s wireServer) FetchMany(ctx context.Context, ids []ID) ([][]byte, error) {
	return s.x.FetchMany(ctx, ids)
}

// suiteConstructions are the four SSE constructions at test-sized
// parameters.
func suiteConstructions() []sse.Scheme {
	return []sse.Scheme{
		sse.Basic{},
		sse.Packed{BlockSize: 4},
		sse.TSet{BucketCapacity: 64, Expansion: 1.5},
		sse.TwoLevel{InlineCap: 4, BlockSize: 16}, // C*B*B = 1024 ids per list
	}
}

// suiteInput is a dataset and the ranges asked of it.
type suiteInput struct {
	bits   uint8
	tuples []Tuple
	ranges []Range
}

// smallInput is what every kind answers: 80 tuples over 2^5 values
// asked 12 ranges up to 12 wide.
func smallInput() suiteInput {
	in := suiteInput{bits: 5, tuples: uniformTuples(80, 5, 201)}
	rnd := mrand.New(mrand.NewSource(202))
	for range 12 {
		lo := rnd.Uint64() % (1 << 5)
		in.ranges = append(in.ranges, Range{Lo: lo, Hi: min(lo+rnd.Uint64()%12, 1<<5-1)})
	}
	return in
}

// forEachBuild runs test once per SSE construction and PRF suite kind
// can be built on, as the subtest <construction>/<suite>.
func forEachBuild(t *testing.T, kind Kind, test func(t *testing.T, sch sse.Scheme, suite prf.Suite)) {
	defer sse.ResetKernelCache()
	for _, sch := range suiteConstructions() {
		if kind == LogarithmicSRCi && sch.Name() == "2lev" {
			continue // 2lev packs 8-byte payloads; SRC-i's aux index stores pairs
		}
		for _, suite := range allSuites {
			t.Run(fmt.Sprintf("%s/%v", sch.Name(), suite), func(t *testing.T) { test(t, sch, suite) })
		}
	}
}

// TestSuiteConformance: every scheme, built under each PRF suite on
// every SSE construction, serialized and loaded onto every storage
// engine, answers smallInput exactly as the plaintext oracle does —
// queried locally and through the wire codecs, by an owner that was
// told nothing about the suite and reads it from the index's Meta —
// with stats that agree with its result slices, and one token per
// Quadratic range.
func TestSuiteConformance(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			forEachBuild(t, kind, func(t *testing.T, sch sse.Scheme, suite prf.Suite) {
				testSuiteConformance(t, kind, sch, suite, smallInput())
			})
		})
	}
}

// TestAllSchemesMatchOracle is the central correctness test on a
// realistic domain: every scheme but Quadratic, on every construction,
// suite and engine as TestSuiteConformance runs them, answers 25 random
// ranges up to 300 wide over 400 tuples on 2^10 values exactly as the
// plaintext oracle does (after owner-side filtering for the SRC schemes).
func TestAllSchemesMatchOracle(t *testing.T) {
	in := suiteInput{bits: 10, tuples: uniformTuples(400, 10, 42)}
	rnd := mrand.New(mrand.NewSource(77))
	for range 25 {
		r := 1 + rnd.Uint64()%300
		lo := rnd.Uint64() % (1<<10 - r)
		in.ranges = append(in.ranges, Range{Lo: lo, Hi: lo + r - 1})
	}
	for _, kind := range nonQuadraticKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			forEachBuild(t, kind, func(t *testing.T, sch sse.Scheme, suite prf.Suite) {
				testSuiteConformance(t, kind, sch, suite, in)
			})
		})
	}
}

// TestQuadraticMatchesOracle runs the naive baseline, whose keyword
// space is O(m^2), on a grid of ranges over 60 tuples on 2^5 values,
// on every construction, suite and engine.
func TestQuadraticMatchesOracle(t *testing.T) {
	in := suiteInput{bits: 5, tuples: uniformTuples(60, 5, 9)}
	for lo := uint64(0); lo < 32; lo += 3 {
		for hi := lo; hi < 32; hi += 5 {
			in.ranges = append(in.ranges, Range{Lo: lo, Hi: hi})
		}
	}
	forEachBuild(t, Quadratic, func(t *testing.T, sch sse.Scheme, suite prf.Suite) {
		testSuiteConformance(t, Quadratic, sch, suite, in)
	})
}

func testSuiteConformance(t *testing.T, kind Kind, sch sse.Scheme, suite prf.Suite, in suiteInput) {
	dom := cover.Domain{Bits: in.bits}
	opts := testOptions(203)
	opts.SSE = sch
	builder, err := NewClient(kind, dom, opts)
	if err != nil {
		t.Fatal(err)
	}
	built, err := withBuildSuite(builder, suite).BuildIndex(in.tuples)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := built.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if blob[12] != byte(suite) || blob[13]|blob[14]|blob[15] != 0 {
		t.Fatalf("header bytes 12..15 = %v, want suite %d then zero pad", blob[12:16], suite)
	}
	// The reference raw sets come from the index as built; every loaded
	// copy must return the same ones.
	check := func(label string, s Source, want [][]ID) [][]ID {
		t.Helper()
		o := testOptions(203)
		o.SSE, o.AllowIntersecting = sch, true
		c, err := NewClient(kind, dom, o)
		if err != nil {
			t.Fatal(err)
		}
		raws := make([][]ID, len(in.ranges))
		for i, q := range in.ranges {
			res, err := c.QueryContext(context.Background(), s, q)
			if err != nil {
				t.Fatalf("%s: query %v: %v", label, q, err)
			}
			exact := exactIDs(in.tuples, q)
			if !idsEqual(sortedIDs(res.Matches), exact) {
				t.Fatalf("%s: query %v: matches %v, want %v", label, q, sortedIDs(res.Matches), exact)
			}
			raws[i] = sortedIDs(res.Raw)
			st := res.Stats
			switch {
			case !kind.HasFalsePositives() && !idsEqual(raws[i], exact):
				t.Fatalf("%s: query %v: raw ids %v, want %v", label, q, raws[i], exact)
			case want != nil && !idsEqual(raws[i], want[i]):
				t.Fatalf("%s: query %v: raw ids %v differ from the built index's %v", label, q, raws[i], want[i])
			case st.Matches != len(res.Matches) || st.Raw != len(res.Raw) || st.FalsePositives != st.Raw-st.Matches:
				t.Fatalf("%s: query %v: stats %d matches, %d raw, %d false positives for %d matches and %d raw ids",
					label, q, st.Matches, st.Raw, st.FalsePositives, len(res.Matches), len(res.Raw))
			case kind == Quadratic && st.Tokens != 1:
				t.Fatalf("%s: query %v: Quadratic used %d tokens", label, q, st.Tokens)
			}
		}
		return raws
	}
	want := check("built", built, nil)
	for _, eng := range storage.Engines() {
		x, err := UnmarshalIndexWith(blob, eng)
		if err != nil {
			t.Fatalf("load onto %s: %v", eng.Name(), err)
		}
		if meta, _ := x.MetaContext(context.Background()); meta.Suite != suite {
			t.Fatalf("%s: loaded index reports suite %v, want %v", eng.Name(), meta.Suite, suite)
		}
		check(eng.Name()+"/local", x, want)
		check(eng.Name()+"/wire", wireServer{x, blob[:16]}, want)
	}
}

// TestSuiteDefaults pins the one table — Quadratic and Logarithmic-BRC
// build suite 0, every other kind suite 3 — and that BuildIndex says
// what the table says in Meta and in the header. Every other test that
// needs a kind's default reads defaultSuite or a built index's Meta.
func TestSuiteDefaults(t *testing.T) {
	for _, kind := range Kinds() {
		want := prf.SuiteBlockPad
		if kind == Quadratic || kind == LogarithmicBRC {
			want = prf.SuiteSHA512
		}
		if got := defaultSuite(kind); got != want {
			t.Errorf("%v: defaultSuite = %v, want %v", kind, got, want)
		}
		c, err := NewClient(kind, cover.Domain{Bits: 5}, testOptions(210))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(uniformTuples(10, 5, 211))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := idx.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		meta, _ := idx.MetaContext(context.Background())
		peek, err := PeekMeta(blob)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Suite != want || peek != meta {
			t.Errorf("%v: built suite %v, header %+v; want suite %v in both", kind, meta.Suite, peek, want)
		}
	}
}

// TestCrossSuiteOwners: which suite an owner builds with says nothing
// about which indexes it can query. An owner building any suite answers
// from an index of any suite — of every kind whose default is suite 2,
// so GGM tokens and keyword stags (SRC-i's round 2 included) alike — with
// and without the trapdoor memo, whose entries must not cross suites,
// and through the batch path.
func TestCrossSuiteOwners(t *testing.T) {
	const bits = 10
	tuples := uniformTuples(300, bits, 220)
	defer sse.ResetKernelCache()
	for _, kind := range []Kind{ConstantBRC, ConstantURC, LogarithmicURC, LogarithmicSRC, LogarithmicSRCi} {
		// answer is what the owner keeps: the server's ids, or the
		// filtered matches for the kinds with false positives.
		answer := func(r *Result) []ID {
			if kind.HasFalsePositives() {
				return sortedIDs(r.Matches)
			}
			return sortedIDs(r.Raw)
		}
		newClient := func(memo int) *Client {
			o := testOptions(221)
			o.AllowIntersecting, o.TrapdoorMemo = true, memo
			c, err := NewClient(kind, cover.Domain{Bits: bits}, o)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		var idx [prf.NumSuites]*Index
		for _, s := range allSuites {
			var err error
			if idx[s], err = withBuildSuite(newClient(0), s).BuildIndex(tuples); err != nil {
				t.Fatal(err)
			}
		}
		ranges := []Range{{0, 1<<bits - 1}, {17, 400}, {512, 600}, {3, 3}}
		for _, ownerSuite := range allSuites {
			for _, memo := range []int{0, 16} {
				c := withBuildSuite(newClient(memo), ownerSuite)
				// Alternate the two indexes under one client: a memo that
				// ignored the suite would replay the other tree's tokens.
				for pass := 0; pass < 2; pass++ {
					for _, q := range ranges {
						for _, s := range allSuites {
							res, err := c.QueryContext(context.Background(), idx[s], q)
							if err != nil {
								t.Fatal(err)
							}
							if got := answer(res); !idsEqual(got, exactIDs(tuples, q)) {
								t.Fatalf("%v: suite-%d owner (memo %d) on a suite-%d index: %v returned %d ids, want %d",
									kind, ownerSuite, memo, s, q, len(got), len(exactIDs(tuples, q)))
							}
						}
					}
				}
				if memo > 0 {
					if n, want := c.tdMemo.len(), len(allSuites)*len(ranges); n != want {
						t.Errorf("%v: memo holds %d trapdoors for %d ranges on %d suites, want %d", kind, n, len(ranges), len(allSuites), want)
					}
				}
				for _, s := range allSuites {
					br, err := c.QueryBatchContext(context.Background(), idx[s], []Range{{0, 99}, {100, 300}, {900, 1023}})
					if err != nil {
						t.Fatal(err)
					}
					for i, q := range []Range{{0, 99}, {100, 300}, {900, 1023}} {
						if !idsEqual(answer(br.Results[i]), exactIDs(tuples, q)) {
							t.Fatalf("%v: batch on a suite-%d index: %v wrong", kind, s, q)
						}
					}
				}
			}
		}
	}
}

// TestUnknownSuiteIsCorrupt: a header naming a suite this build does not
// implement is refused by the peek and by the loader on every engine.
func TestUnknownSuiteIsCorrupt(t *testing.T) {
	c, err := NewClient(ConstantURC, cover.Domain{Bits: 6}, testOptions(240))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(20, 6, 241))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if prf.Suite(prf.NumSuites).Valid() {
		t.Fatal("prf.NumSuites names an implemented suite")
	}
	// Suite 4 is the first unimplemented one.
	for _, bad := range []byte{4, prf.NumSuites, prf.NumSuites + 5, 255} {
		blob[12] = bad
		if _, err := PeekMeta(blob); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("PeekMeta with suite byte %d: err %v, want ErrCorruptIndex", bad, err)
		}
		for _, eng := range storage.Engines() {
			if _, err := UnmarshalIndexWith(blob, eng); !errors.Is(err, ErrCorruptIndex) {
				t.Errorf("load onto %s with suite byte %d: err %v, want ErrCorruptIndex", eng.Name(), bad, err)
			}
		}
	}
}

// goldenSuites lists the suites a kind has golden files for, each file
// written by the release that made the suite the kind's default: suite
// 0 for every kind; suites 1, 2 and 3 for the two Constant kinds; suites
// 2 and 3 for Logarithmic-URC, -SRC and -SRC-i, which went from 0
// straight to 2. -update rewrites only the file of the kind's default
// suite (tuple ciphertexts are randomized, so a rewrite changes bytes)
// and should never be needed; older generations are never rewritten.
func goldenSuites(kind Kind) []prf.Suite {
	switch kind {
	case ConstantBRC, ConstantURC:
		return allSuites
	case LogarithmicURC, LogarithmicSRC, LogarithmicSRCi:
		return []prf.Suite{prf.SuiteSHA512, prf.SuiteBlock, prf.SuiteBlockPad}
	default:
		return []prf.Suite{prf.SuiteSHA512}
	}
}

func goldenSuitePath(kind Kind, s prf.Suite) string {
	if s == prf.SuiteSHA512 {
		return filepath.Join("testdata", "golden", kind.String()+".idx")
	}
	return filepath.Join("testdata", "golden", fmt.Sprintf("%v.suite%d.idx", kind, s))
}

// TestGoldenSuites: every golden file of every kind loads onto every
// engine unmodified, reports the metadata it was built with, and answers
// the golden queries to an owner on today's defaults. A load writes its
// segments out as they are, so its re-marshal is the file's own bytes
// on every engine.
func TestGoldenSuites(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, suite := range goldenSuites(kind) {
				path := goldenSuitePath(kind, suite)
				if *updateGolden && suite == defaultSuite(kind) {
					idx, err := goldenClient(t, kind).BuildIndex(goldenTuples())
					if err != nil {
						t.Fatal(err)
					}
					blob, err := idx.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, blob, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (regenerate with -update): %v", err)
				}
				want := IndexMeta{Kind: kind, DomainBits: goldenBits, N: len(goldenTuples()), Suite: suite}
				if meta, err := PeekMeta(blob); err != nil || meta.Kind != kind || meta.N != want.N || meta.Suite != suite {
					t.Fatalf("%s: PeekMeta = %+v, %v", path, meta, err)
				}
				for _, eng := range storage.Engines() {
					x, err := UnmarshalIndexWith(blob, eng)
					if err != nil {
						t.Fatalf("%s onto %s: %v", path, eng.Name(), err)
					}
					if meta, _ := x.MetaContext(context.Background()); meta.Suite != suite || meta.Kind != kind || meta.DomainBits != goldenBits || meta.N != want.N {
						t.Fatalf("%s onto %s: meta %+v, want %+v", path, eng.Name(), meta, want)
					}
					queryAll(t, kind, x, path+"/"+eng.Name())
					again, err := x.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again, blob) {
						t.Fatalf("%s onto %s: re-marshal is not the file's bytes", path, eng.Name())
					}
				}
			}
		})
	}
}
