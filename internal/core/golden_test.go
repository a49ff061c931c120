package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// Wire-compat golden files: small index blobs committed under
// testdata/golden, one per scheme Kind at suite 0 (each over a different
// SSE construction for coverage) plus one per later PRF suite each kind
// has built by default (goldenSuites). TestGoldenSuites asserts that
// every one of them still loads onto every storage engine, answers the
// golden queries and re-marshals byte for byte.
//
// The suite-0 files were written in the v1 record stream by PR 2 and
// converted to the segment container by PR 25 (v1 reader, then
// MarshalBinary), keeping their tuple ciphertexts. TestGoldenV1Compat
// pins what is left of v1: those files are v2 now, and a blob stamped
// v1 is refused as corrupt on every load path.

var updateGolden = flag.Bool("update", false, "rewrite golden index files")

const goldenBits = 5

// goldenKey is the committed master key the golden indexes were built
// with; queries in this test only work because it never changes.
func goldenKey() []byte { return bytes.Repeat([]byte{0x42}, 32) }

func goldenTuples() []Tuple {
	rnd := mrand.New(mrand.NewSource(77))
	out := make([]Tuple, 24)
	for i := range out {
		out[i] = Tuple{
			ID:      uint64(i + 1),
			Value:   rnd.Uint64() % (1 << goldenBits),
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		}
	}
	return out
}

// goldenSSE pairs every scheme Kind with an SSE construction so the
// golden set also covers all four dictionary wire formats. TwoLevel is
// excluded from LogarithmicSRCi, whose aux index stores 40-byte pairs.
func goldenSSE(kind Kind) sse.Scheme {
	switch kind {
	case ConstantURC:
		return sse.Packed{BlockSize: 4}
	case LogarithmicBRC:
		return sse.TwoLevel{InlineCap: 4, BlockSize: 4}
	case LogarithmicURC, LogarithmicSRC:
		return sse.TSet{BucketCapacity: 64, Expansion: 1.5}
	default:
		return sse.Basic{}
	}
}

func goldenOptions(kind Kind) Options {
	return Options{
		SSE:               goldenSSE(kind),
		Rand:              mrand.New(mrand.NewSource(int64(kind) + 1)),
		MasterKey:         goldenKey(),
		AllowIntersecting: true,
	}
}

func goldenClient(t *testing.T, kind Kind) *Client {
	t.Helper()
	c, err := NewClient(kind, cover.Domain{Bits: goldenBits}, goldenOptions(kind))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func goldenQueries() []Range {
	return []Range{{0, 31}, {3, 7}, {10, 10}, {0, 0}, {17, 29}}
}

// expectedMatches filters the plaintext tuples — the ground truth every
// loaded index must reproduce.
func expectedMatches(q Range) []ID {
	var out []ID
	for _, t := range goldenTuples() {
		if q.Contains(t.Value) {
			out = append(out, t.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// queryAll runs every golden query against x and fails on any deviation
// from the plaintext ground truth. A fresh client per call keeps the
// Constant schemes' query history empty.
func queryAll(t *testing.T, kind Kind, x *Index, label string) {
	t.Helper()
	c := goldenClient(t, kind)
	for _, q := range goldenQueries() {
		res, err := c.QueryContext(context.Background(), x, q)
		if err != nil {
			t.Fatalf("%s: query %v: %v", label, q, err)
		}
		got := append([]ID(nil), res.Matches...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		want := expectedMatches(q)
		if len(got) != len(want) {
			t.Fatalf("%s: query %v: got %d matches %v, want %d %v", label, q, len(got), got, len(want), want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: query %v: matches %v, want %v", label, q, got, want)
			}
		}
	}
}

// TestGoldenV1Compat: every suite-0 golden — written as v1 by PR 2 — is
// a v2 file, and the same bytes stamped with wire version 1 are refused
// with ErrCorruptIndex naming the version by PeekMeta, by every engine
// and by OpenIndexFile, never misparsed or answered.
func TestGoldenV1Compat(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			path := goldenSuitePath(kind, prf.SuiteSHA512)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if blob[0] != indexWireVersion {
				t.Fatalf("%s: wire version %d, want %d", path, blob[0], indexWireVersion)
			}
			v1 := append([]byte(nil), blob...)
			v1[0] = 1
			isV1Refusal := func(err error) bool {
				return errors.Is(err, ErrCorruptIndex) && strings.Contains(err.Error(), "wire version 1")
			}
			if meta, err := PeekMeta(v1); !isV1Refusal(err) {
				t.Fatalf("PeekMeta of a v1 blob = %+v, %v; want ErrCorruptIndex naming version 1", meta, err)
			}
			v1Path := filepath.Join(t.TempDir(), "v1.idx")
			if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, eng := range storage.Engines() {
				if _, err := UnmarshalIndexWith(v1, eng); !isV1Refusal(err) {
					t.Errorf("v1 blob onto %s: err %v, want ErrCorruptIndex naming version 1", eng.Name(), err)
				}
				if x, err := OpenIndexFile(v1Path, eng); !isV1Refusal(err) {
					if x != nil {
						x.Close()
					}
					t.Errorf("v1 file opened with %s: err %v, want ErrCorruptIndex naming version 1", eng.Name(), err)
				}
			}
		})
	}
}

// sectionSegmentVersions reads the segment version of every dictionary
// of a serialized index: each section's first segment follows its
// construction's fixed header and a length prefix.
func sectionSegmentVersions(t *testing.T, blob []byte) []uint16 {
	t.Helper()
	header := map[byte]int{1: 8, 2: 16, 3: 40, 4: 24} // basic, packed, tset, 2lev
	var out []uint16
	r := wireReader{data: blob, off: 16}
	for range 2 { // primary, aux
		sec, err := r.lenPrefixed()
		if err != nil {
			t.Fatal(err)
		}
		if len(sec) == 0 {
			continue
		}
		seg := sec[header[sec[0]]+8:]
		out = append(out, binary.BigEndian.Uint16(seg[4:6]))
	}
	return out
}

// TestGoldenV3: every kind on every construction (but 2lev for SRC-i),
// built from the golden tuples and key as the goldens were, seals every
// dictionary as segment v3. Marshalled and loaded onto every engine, it
// answers each golden query with the raw ids and the matches the
// committed v2 golden of its kind answers, and re-marshals to its own
// bytes.
func TestGoldenV3(t *testing.T) {
	for _, kind := range Kinds() {
		golden, err := os.ReadFile(goldenSuitePath(kind, prf.SuiteSHA512))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := UnmarshalIndex(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range suiteConstructions() {
			if kind == LogarithmicSRCi && sch.Name() == "2lev" {
				continue
			}
			name := kind.String() + "/" + sch.Name()
			opts := goldenOptions(kind)
			opts.SSE = sch
			c, err := NewClient(kind, cover.Domain{Bits: goldenBits}, opts)
			if err != nil {
				t.Fatal(err)
			}
			built, err := c.BuildIndex(goldenTuples())
			if err != nil {
				t.Fatal(err)
			}
			blob, err := built.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range sectionSegmentVersions(t, blob) {
				if v != 3 {
					t.Fatalf("%s: a dictionary sealed as segment v%d", name, v)
				}
			}
			for _, eng := range storage.Engines() {
				x, err := UnmarshalIndexWith(blob, eng)
				if err != nil {
					t.Fatalf("%s onto %s: %v", name, eng.Name(), err)
				}
				for _, q := range goldenQueries() {
					got, err := goldenClient(t, kind).QueryContext(context.Background(), x, q)
					if err != nil {
						t.Fatalf("%s onto %s: %v: %v", name, eng.Name(), q, err)
					}
					want, err := goldenClient(t, kind).QueryContext(context.Background(), ref, q)
					if err != nil {
						t.Fatal(err)
					}
					if !idsEqual(sortedIDs(got.Raw), sortedIDs(want.Raw)) || !idsEqual(sortedIDs(got.Matches), sortedIDs(want.Matches)) ||
						!idsEqual(sortedIDs(got.Matches), expectedMatches(q)) {
						t.Fatalf("%s onto %s: %v answered raw %v, matches %v; the golden %v, %v", name, eng.Name(), q, got.Raw, got.Matches, want.Raw, want.Matches)
					}
				}
				again, err := x.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, blob) {
					t.Fatalf("%s onto %s: re-marshal differs from the build's bytes", name, eng.Name())
				}
			}
		}
	}
}

// TestIndexStatsBreakdown: for every kind on every construction, built
// and loaded on every engine, IndexStats' IndexBytes is its headers,
// labels and cells (TestSizesMatchSegments pins those to the segments'
// records), the same for a built and a loaded index, and only a T-set
// has padding slack.
func TestIndexStatsBreakdown(t *testing.T) {
	in := smallInput()
	for _, kind := range Kinds() {
		for _, sch := range suiteConstructions() {
			if kind == LogarithmicSRCi && sch.Name() == "2lev" {
				continue
			}
			opts := testOptions(5)
			opts.SSE = sch
			c, err := NewClient(kind, cover.Domain{Bits: in.bits}, opts)
			if err != nil {
				t.Fatal(err)
			}
			built, err := c.BuildIndex(in.tuples)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := built.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want := built.Stats()
			for _, eng := range storage.Engines() {
				loaded, err := UnmarshalIndexWith(blob, eng)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []IndexStats{built.Stats(), loaded.Stats()} {
					name := fmt.Sprintf("%v/%s/%s", kind, sch.Name(), eng.Name())
					if s.IndexBytes != s.HeaderBytes+s.LabelBytes+s.CellBytes || s.IndexBytes != built.Size() {
						t.Errorf("%s: %d index bytes, %d+%d+%d in headers, labels and cells", name, s.IndexBytes, s.HeaderBytes, s.LabelBytes, s.CellBytes)
					}
					if s.LabelBytes == 0 || s.DirBytes == 0 || (s.SlackBytes > 0) != (sch.Name() == "tset") {
						t.Errorf("%s: %+v", name, s)
					}
					if s.IndexBytes != want.IndexBytes || s.LabelBytes != want.LabelBytes || s.SlackBytes != want.SlackBytes || s.DirBytes != want.DirBytes {
						t.Errorf("%s: loaded stats %+v, built %+v", name, s, want)
					}
				}
			}
		}
	}
}
