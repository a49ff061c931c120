package core

import (
	"context"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/storage"
)

// TestAllSchemesAllStorageEngines drives every scheme through the
// storage.Backend seam: build on each engine — and on "map", the
// deprecated alias of sorted, which must report "sorted" — query,
// serialize, reload onto the *other* engine, and query again — results
// must match the plaintext oracle throughout.
func TestAllSchemesAllStorageEngines(t *testing.T) {
	const bits = 6
	dom := cover.Domain{Bits: bits}
	tuples := uniformTuples(120, bits, 11)
	queries := []Range{{Lo: 0, Hi: 63}, {Lo: 5, Hi: 40}, {Lo: 50, Hi: 50}}

	for _, kind := range Kinds() {
		for _, name := range []string{"map", "sorted", "disk"} {
			t.Run(kind.String()+"/"+name, func(t *testing.T) {
				eng, err := storage.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				opts := testOptions(3)
				opts.Storage = eng
				opts.AllowIntersecting = true
				c, err := NewClient(kind, dom, opts)
				if err != nil {
					t.Fatal(err)
				}
				idx, err := c.BuildIndex(tuples)
				if err != nil {
					t.Fatal(err)
				}
				if got := idx.Stats().Engine; got != eng.Name() || got == "map" {
					t.Fatalf("built on %s, the index reports %q", name, got)
				}
				check := func(x *Index, label string) {
					t.Helper()
					for _, q := range queries {
						res, err := c.QueryContext(context.Background(), x, q)
						if err != nil {
							t.Fatalf("%s: query %v: %v", label, q, err)
						}
						want := exactIDs(tuples, q)
						if got := sortedIDs(res.Matches); !idsEqual(got, want) {
							t.Fatalf("%s: query %v: got %d matches, want %d",
								label, q, len(got), len(want))
						}
					}
				}
				check(idx, "built")

				blob, err := idx.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				// Reload onto the other engine: layout is a server-local
				// choice, invisible to the protocol.
				other := storage.Engines()[0]
				if other.Name() == eng.Name() {
					other = storage.Engines()[1]
				}
				back, err := UnmarshalIndexWith(blob, other)
				if err != nil {
					t.Fatal(err)
				}
				check(back, "reloaded on "+other.Name())

				// The wire image must not depend on the engine either.
				blob2, err := back.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if len(blob) != len(blob2) {
					t.Fatalf("re-marshal size %d != %d", len(blob2), len(blob))
				}
				for i := range blob {
					if blob[i] != blob2[i] {
						t.Fatalf("re-marshal differs at byte %d", i)
					}
				}
			})
		}
	}
}
