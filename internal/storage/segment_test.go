package storage

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// sortedKeys returns recs' keys in ascending order.
func sortedKeys(recs map[string][]byte) []string {
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func encodeRecords(t *testing.T, keyLen int, recs map[string][]byte) []byte {
	t.Helper()
	seg, err := EncodeSegment(fill(t, Sorted{}, keyLen, recs))
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestSegmentRoundtrip(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(11))
	for _, keyLen := range []int{2, 8, 16} {
		for _, n := range []int{0, 1, 500} {
			recs := randomRecords(rnd, n, keyLen)
			seg := encodeRecords(t, keyLen, recs)
			x, err := OpenSegment(seg)
			if err != nil {
				t.Fatalf("keyLen=%d n=%d: open: %v", keyLen, n, err)
			}
			if x.Len() != n || x.KeyLen() != keyLen {
				t.Fatalf("shape = (%d, %d), want (%d, %d)", x.Len(), x.KeyLen(), n, keyLen)
			}
			for k, v := range recs {
				got, ok := x.Get([]byte(k))
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("get %x = %x, %v; want %x", k, got, ok, v)
				}
			}
			if _, ok := x.Get(make([]byte, keyLen+1)); ok {
				t.Fatal("wrong-length key found")
			}
			var iterated []string
			x.Iterate(func(k, v []byte) bool {
				if !bytes.Equal(v, recs[string(k)]) {
					t.Fatalf("iterate value mismatch at %x", k)
				}
				iterated = append(iterated, string(k))
				return true
			})
			want := sortedKeys(recs)
			if len(iterated) != len(want) {
				t.Fatalf("iterated %d, want %d", len(iterated), len(want))
			}
			for i := range want {
				if iterated[i] != want[i] {
					t.Fatalf("iterate order broken at %d", i)
				}
			}
		}
	}
}

// TestSegmentRejectsCorruption flips every byte of a small segment in
// turn: each mutation must either fail OpenSegment with
// ErrCorruptSegment or (never, given the checksums) open cleanly — and
// must never panic.
func TestSegmentRejectsCorruption(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(12))
	seg := encodeRecords(t, 8, randomRecords(rnd, 40, 8))
	for i := range seg {
		mut := append([]byte(nil), seg...)
		mut[i] ^= 0x41
		if _, err := OpenSegment(mut); err == nil {
			t.Fatalf("bit flip at offset %d accepted", i)
		} else if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("bit flip at offset %d: untyped error %v", i, err)
		}
	}
	// Truncations at every length.
	for n := 0; n < len(seg); n += 7 {
		if _, err := OpenSegment(seg[:n]); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("truncation to %d: %v", n, err)
		}
	}
}

func TestSegmentStats(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(13))
	recs := randomRecords(rnd, 25, 16)
	want := 0
	for _, v := range recs {
		want += len(v)
	}
	seg := encodeRecords(t, 16, recs)
	n, keyLen, valueBytes, err := SegmentStats(seg)
	if err != nil || n != 25 || keyLen != 16 || valueBytes != int64(want) {
		t.Fatalf("SegmentStats = (%d, %d, %d, %v), want (25, 16, %d, nil)", n, keyLen, valueBytes, err, want)
	}
	if _, _, _, err := SegmentStats(seg[:20]); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("short stats err = %v", err)
	}
}

// TestLoadAcrossEngines rebuilds (or aliases) a segment onto every
// engine and checks the results agree.
func TestLoadAcrossEngines(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(14))
	recs := randomRecords(rnd, 300, 16)
	seg := encodeRecords(t, 16, recs)
	for _, e := range append([]Engine{nil}, Engines()...) {
		name := "nil"
		if e != nil {
			name = e.Name()
		}
		x, err := Load(seg, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.Len() != len(recs) || x.KeyLen() != 16 {
			t.Fatalf("%s: shape (%d, %d)", name, x.Len(), x.KeyLen())
		}
		for k, v := range recs {
			if got, ok := x.Get([]byte(k)); !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: get %x mismatch", name, k)
			}
		}
	}
}

// TestOpenSegmentFile serves a segment straight from a file: MapFile
// plus OpenSegment answer every record in place, pin no heap bytes, and
// a missing or corrupt file is refused.
func TestOpenSegmentFile(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(16))
	recs := randomRecords(rnd, 150, 16)
	seg := encodeRecords(t, 16, recs)
	path := filepath.Join(t.TempDir(), "space.seg")
	if err := os.WriteFile(path, seg, 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != len(seg) {
		t.Fatalf("mapped %d bytes, want %d", len(m.Data), len(seg))
	}
	x, err := OpenSegment(m.Data)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range recs {
		if got, ok := x.Get([]byte(k)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("get %x mismatch", k)
		}
	}
	if x.Resident() != 0 {
		t.Fatalf("file-backed segment reports %d resident bytes", x.Resident())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}

	if _, err := MapFile(filepath.Join(t.TempDir(), "missing.seg")); err == nil {
		t.Fatal("opened a missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.seg")
	if err := os.WriteFile(bad, []byte("not a segment"), 0o600); err != nil {
		t.Fatal(err)
	}
	mb, err := MapFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if _, err := OpenSegment(mb.Data); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("bad file err = %v", err)
	}
}

// FuzzOpenSegment hammers the raw segment parser: corrupt bytes must be
// rejected with ErrCorruptSegment, and anything accepted must survive a
// full probe without panicking.
func FuzzOpenSegment(f *testing.F) {
	rnd := mrand.New(mrand.NewSource(17))
	for _, n := range []int{0, 3, 64} {
		b := Sorted{}.NewBuilder(8, n)
		recs := randomRecords(rnd, n, 8)
		for k, v := range recs {
			if err := b.Put([]byte(k), v); err != nil {
				f.Fatal(err)
			}
		}
		x, err := b.Seal()
		if err != nil {
			f.Fatal(err)
		}
		seg, err := EncodeSegment(x)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	f.Add([]byte("RSG1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := OpenSegment(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		probe := make([]byte, x.KeyLen())
		x.Get(probe)
		count := 0
		x.Iterate(func(k, v []byte) bool {
			if got, ok := x.Get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("iterated record not gettable: %x", k)
			}
			count++
			return count < 64
		})
	})
}

// TestEncodeSegmentBytes pins the segment encoding of both record
// layouts to SHA-256 digests recorded before the Sorted engine kept
// fixed-width values beside their keys: the in-memory layout is the
// server's own, never the file's, on every engine.
func TestEncodeSegmentBytes(t *testing.T) {
	want := map[string]string{
		"uniform": "dea74f20a79578c8792ba577b1c10d2448376a6d99a545e2f4198af6f305a2ce",
		"mixed":   "1927f624497eff734376e5979b3b97cc651901ba14cd8e7f776f76fe2c875b37",
	}
	for _, c := range layoutCases(5) {
		for _, e := range Engines() {
			seg, err := EncodeSegment(fill(t, e, c.keyLen, c.recs))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(seg)); got != want[c.name] {
				t.Errorf("%s/%s: segment digest %s, want %s", e.Name(), c.name, got, want[c.name])
			}
		}
	}
}
