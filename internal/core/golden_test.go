package core

import (
	"bytes"
	"flag"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// Wire-compat golden files: small v1 index blobs, one per scheme Kind
// (each over a different SSE construction for coverage), committed under
// testdata/golden. The test asserts that blobs written before the v2
// segment-container format still load — onto every storage engine — and
// answer queries identically to a v2 round-trip of the same index.
//
// Regenerate with: go test ./internal/core -run TestGolden -update
// (only needed when intentionally revving the v1 writer, which should
// never happen: v1 is frozen).

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

func goldenClient(t *testing.T, kind Kind) *Client {
	t.Helper()
	c, err := NewClient(kind, cover.Domain{Bits: goldenBits}, Options{
		SSE:               goldenSSE(kind),
		Rand:              mrand.New(mrand.NewSource(int64(kind) + 1)),
		MasterKey:         goldenKey(),
		AllowIntersecting: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func goldenPath(kind Kind) string {
	return filepath.Join("testdata", "golden", kind.String()+".idx")
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
		res, err := c.Query(x, q)
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

func TestGoldenV1Compat(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			path := goldenPath(kind)
			if *updateGolden {
				// v1 has no suite byte: its goldens are suite 0.
				c := withBuildSuite(goldenClient(t, kind), prf.SuiteSHA512)
				idx, err := c.BuildIndex(goldenTuples())
				if err != nil {
					t.Fatal(err)
				}
				blob, err := idx.MarshalBinaryV1()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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

			meta, err := PeekMeta(blob)
			if err != nil || meta.Kind != kind || meta.N != len(goldenTuples()) {
				t.Fatalf("PeekMeta = %+v, %v", meta, err)
			}

			// The frozen v1 blob must load onto every engine and answer
			// queries identically to the plaintext ground truth.
			var fromV1 *Index
			for _, eng := range storage.Engines() {
				x, err := UnmarshalIndexWith(blob, eng)
				if err != nil {
					t.Fatalf("v1 load onto %s: %v", eng.Name(), err)
				}
				queryAll(t, kind, x, "v1/"+eng.Name())
				fromV1 = x
			}

			// A v2 round-trip of the v1-loaded index must be lossless:
			// same answers on every engine, including the zero-copy one.
			v2, err := fromV1.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var fromV2 *Index
			for _, eng := range storage.Engines() {
				x, err := UnmarshalIndexWith(v2, eng)
				if err != nil {
					t.Fatalf("v2 load onto %s: %v", eng.Name(), err)
				}
				queryAll(t, kind, x, "v2/"+eng.Name())
				fromV2 = x
			}

			// And a v2-loaded index must still be able to write frozen v1
			// (the downgrade path), which must load and answer again.
			v1again, err := fromV2.MarshalBinaryV1()
			if err != nil {
				t.Fatal(err)
			}
			x, err := UnmarshalIndex(v1again)
			if err != nil {
				t.Fatal(err)
			}
			queryAll(t, kind, x, "v1-rewrite")
		})
	}
}
