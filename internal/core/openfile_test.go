package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/fault"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// openFileFixture builds a small SRC-i index (two SSE indexes plus store
// — the widest container shape) and persists it.
func openFileFixture(t *testing.T, dir string) (*Client, string) {
	t.Helper()
	c, err := NewClient(LogarithmicSRCi, cover.Domain{Bits: 6}, testOptions(70))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(40, 6, 71))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "srci.idx")
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		t.Fatal(err)
	}
	return c, path
}

func TestOpenIndexFile(t *testing.T) {
	dir := t.TempDir()
	c, path := openFileFixture(t, dir)
	for _, eng := range storage.Engines() {
		x, err := OpenIndexFile(path, eng)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		res, err := c.QueryContext(context.Background(), x, Range{5, 40})
		if err != nil {
			t.Fatalf("%s: query: %v", eng.Name(), err)
		}
		want := 0
		for _, tu := range uniformTuples(40, 6, 71) {
			if (Range{5, 40}).Contains(tu.Value) {
				want++
			}
		}
		if len(res.Matches) != want {
			t.Fatalf("%s: %d matches, want %d", eng.Name(), len(res.Matches), want)
		}

		s := x.Stats()
		if s.Kind != LogarithmicSRCi || s.N != 40 || s.Engine != eng.Name() {
			t.Fatalf("stats = %+v", s)
		}
		if s.FileBytes == 0 {
			t.Fatalf("%s: FileBytes = 0 for a file-backed open", eng.Name())
		}
		if s.IndexBytes <= 0 || s.StoreBytes <= 0 || s.Postings <= 0 {
			t.Fatalf("stats sizes missing: %+v", s)
		}
		// The zero-copy path should pin (almost) nothing on the heap;
		// a sorted load pins its copy of the file.
		if eng.Name() == "disk" {
			if s.Resident > int64(s.IndexBytes)/10 {
				t.Fatalf("disk engine resident %d vs index %d — not zero-copy", s.Resident, s.IndexBytes)
			}
		} else if s.Resident == 0 {
			t.Fatalf("%s: resident = 0 for a copied index", eng.Name())
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		if err := x.Close(); err != nil {
			t.Fatal("second Close not idempotent:", err)
		}
	}

	if _, err := OpenIndexFile(filepath.Join(dir, "missing.idx"), nil); err == nil {
		t.Fatal("opened a missing file")
	}
	bad := filepath.Join(dir, "bad.idx")
	if err := os.WriteFile(bad, []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexFile(bad, storage.Disk{}); err == nil {
		t.Fatal("opened garbage")
	}
}

// TestLoadCopiesOnceOrAliases: a load onto any engine but disk serves
// its own copy of the blob, so overwriting every byte of the caller's
// blob changes no answer, and the copy counts as heap-resident; a disk
// load serves the caller's bytes in place, and a disk index opened from
// a memory-mapped file pins no heap bytes. Every engine answers the
// same and re-marshals to the bytes it loaded.
func TestLoadCopiesOnceOrAliases(t *testing.T) {
	const bits = 6
	tuples := uniformTuples(60, bits, 21)
	alias, err := storage.ByName("map")
	if err != nil {
		t.Fatal(err)
	}
	engines := []storage.Engine{nil, alias, storage.Sorted{}, storage.Disk{}}
	// SRC-i is the widest container (primary, aux and store); 2lev also
	// serves spill blocks from the blob.
	for _, build := range []struct {
		kind Kind
		sse  sse.Scheme
	}{{LogarithmicSRCi, sse.Basic{}}, {LogarithmicBRC, sse.TwoLevel{}}} {
		opts := testOptions(20)
		opts.SSE, opts.AllowIntersecting = build.sse, true
		c, err := NewClient(build.kind, cover.Domain{Bits: bits}, opts)
		if err != nil {
			t.Fatal(err)
		}
		built, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := built.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		check := func(x *Index, what string) {
			t.Helper()
			for _, q := range []Range{{0, 63}, {5, 40}, {50, 50}} {
				res, err := c.QueryContext(context.Background(), x, q)
				if err != nil {
					t.Fatalf("%s: query %v: %v", what, q, err)
				}
				if got := sortedIDs(res.Matches); !idsEqual(got, exactIDs(tuples, q)) {
					t.Fatalf("%s: query %v: %d matches, want %d", what, q, len(got), len(exactIDs(tuples, q)))
				}
			}
			again, err := x.MarshalBinary()
			if err != nil || !bytes.Equal(again, orig) {
				t.Fatalf("%s: re-marshal differs from the loaded bytes (err %v)", what, err)
			}
		}
		for _, eng := range engines {
			want := storage.OrDefault(eng).Name()
			what := fmt.Sprintf("%v/%s", build.kind, want)
			blob := bytes.Clone(orig)
			x, err := UnmarshalIndexWith(blob, eng)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got := x.Stats().Engine; got != want {
				t.Fatalf("%s: Stats().Engine = %q", what, got)
			}
			if _, disk := eng.(storage.Disk); !disk {
				for i := range blob {
					blob[i] = ^blob[i]
				}
			} else if &x.retained[0] != &blob[0] {
				t.Fatalf("%s: the index does not serve the caller's bytes", what)
			}
			check(x, what)
			if r := x.Stats().Resident; r < int64(len(blob)) {
				t.Fatalf("%s: resident %d, want at least the %d-byte blob", what, r, len(blob))
			}
		}

		path := filepath.Join(t.TempDir(), "x.idx")
		if err := os.WriteFile(path, orig, 0o600); err != nil {
			t.Fatal(err)
		}
		for _, eng := range []storage.Engine{storage.Sorted{}, storage.Disk{}} {
			what := fmt.Sprintf("%v/%s from a file", build.kind, eng.Name())
			x, err := OpenIndexFile(path, eng)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			check(x, what)
			r := x.Stats().Resident
			switch {
			case eng == storage.Disk{} && x.mapped && r != 0:
				t.Fatalf("%s: a mapped index pins %d heap bytes", what, r)
			case eng == storage.Sorted{} && (x.closer != nil || r < int64(len(orig))):
				t.Fatalf("%s: resident %d of a %d-byte copy, mapping kept %v", what, r, len(orig), x.closer != nil)
			}
			if err := x.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLoadRefusesOtherEngines: a load serves the blob's own sorted or
// disk segments, so an engine whose backends it would never build — a
// fault-injecting wrapper, say — is refused rather than reported in
// Stats while injecting nothing.
func TestLoadRefusesOtherEngines(t *testing.T) {
	_, path := openFileFixture(t, t.TempDir())
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := fault.Engine{Inner: storage.Sorted{}, Plan: fault.BackendPlan{Seed: 1, DelayEvery: 1, DelayMS: 1}}
	if x, err := UnmarshalIndexWith(blob, eng); err == nil {
		t.Fatalf("UnmarshalIndexWith onto %s loaded an index reporting %q", eng.Name(), x.Stats().Engine)
	}
	if x, err := OpenIndexFile(path, eng); err == nil {
		x.Close()
		t.Fatalf("OpenIndexFile onto %s loaded an index reporting %q", eng.Name(), x.Stats().Engine)
	}
}
