package core

import (
	"os"
	"path/filepath"
	"testing"

	"rsse/internal/cover"
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
		res, err := c.Query(x, Range{5, 40})
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
		// rebuild engines should pin roughly the data.
		if eng.Name() == "disk" {
			if s.Resident > int64(s.IndexBytes)/10 {
				t.Fatalf("disk engine resident %d vs index %d — not zero-copy", s.Resident, s.IndexBytes)
			}
		} else if s.Resident == 0 {
			t.Fatalf("%s: resident = 0 for a rebuilt index", eng.Name())
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
