package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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

// TestSegmentRejectsCorruption flips every byte of a segment of each
// version in turn: each mutation must fail OpenSegment with
// ErrCorruptSegment (never open cleanly, given the checksums), and must
// never panic. So must every truncation.
func TestSegmentRejectsCorruption(t *testing.T) {
	for _, c := range layoutCases(12) {
		seg := encodeRecords(t, c.keyLen, c.recs)
		for i := range seg {
			seg[i] ^= 0x41
			_, err := OpenSegment(seg)
			seg[i] ^= 0x41
			if err == nil {
				t.Fatalf("%s: bit flip at offset %d accepted", c.name, i)
			} else if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("%s: bit flip at offset %d: untyped error %v", c.name, i, err)
			}
		}
		for n := 0; n < len(seg); n += 7 {
			if _, err := OpenSegment(seg[:n]); !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("%s: truncation to %d: %v", c.name, n, err)
			}
		}
	}
}

// TestCraftedSegmentsDegrade: a checksum-valid segment whose directory
// or offsets lie must degrade to misses and a short Iterate, never a
// panic, and EncodeSegment must refuse to re-encode a short Iterate.
func TestCraftedSegmentsDegrade(t *testing.T) {
	// reseal recomputes the body checksum over a mutated body.
	reseal := func(seg []byte) {
		end := len(seg) - segFooterSize
		binary.BigEndian.PutUint32(seg[end:], crc32c(seg[segHeaderSize:end]))
	}
	for _, c := range layoutCases(13) {
		seg := encodeRecords(t, c.keyLen, c.recs)
		dirOff := len(seg) - segFooterSize - 4*((1<<seg[24])+1)
		// Bucket p claims records [p<<16, (p+1)<<16): past n for all.
		for off := dirOff; off < len(seg)-segFooterSize; off += 4 {
			binary.BigEndian.PutUint32(seg[off:], uint32(off-dirOff)<<14)
		}
		reseal(seg)
		x, err := OpenSegment(seg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for k, v := range c.recs {
			if got, ok := x.Get([]byte(k)); ok && !bytes.Equal(got, v) {
				t.Fatalf("%s: lying directory answered %x with %x", c.name, k, got)
			}
		}
	}
	c := layoutCases(13)[1] // version 1: an offset past the value heap
	seg := encodeRecords(t, c.keyLen, c.recs)
	offsOff := int(pad8(uint64(segHeaderSize + len(c.recs)*c.keyLen)))
	binary.BigEndian.PutUint64(seg[offsOff+8*10:], 1<<40)
	reseal(seg)
	x, err := OpenSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range c.recs {
		x.Get([]byte(k))
	}
	if _, err := EncodeSegment(x); err == nil {
		t.Fatal("re-encoded a segment whose Iterate stops at a lying offset")
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
		// Mixed widths seed version 1, one width version 2.
		for _, recs := range []map[string][]byte{randomRecords(rnd, n, 8), uniformRecords(rnd, n, 8, 12)} {
			seg, err := EncodeSegment(fill(f, Sorted{}, 8, recs))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seg)
		}
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

// TestEncodeSegmentBytes pins the segment encoding of both versions to
// SHA-256 digests, on every engine: the uniform space is version 2, and
// the mixed one version 1, whose digest was recorded when version 1 was
// the only format. Both must also be the size the layout declares.
func TestEncodeSegmentBytes(t *testing.T) {
	want := map[string]struct {
		version uint16
		size    int
		digest  string
	}{
		// 48-byte header, 3000 records of 16+41 bytes padded to 4, 2^10+1
		// directory entries (3000/4 records to bucket), 4-byte footer.
		"uniform": {2, 48 + 171000 + 4*1025 + 4, "ecd7052de3c52bae3acf8cf6f51012fc9b6674f5a256541f88b21e2d590a01a1"},
		"mixed":   {1, -1, "1927f624497eff734376e5979b3b97cc651901ba14cd8e7f776f76fe2c875b37"},
	}
	for _, c := range layoutCases(5) {
		w := want[c.name]
		for _, e := range Engines() {
			seg, err := EncodeSegment(fill(t, e, c.keyLen, c.recs))
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.BigEndian.Uint16(seg[4:6]); v != w.version || (w.size >= 0 && len(seg) != w.size) {
				t.Errorf("%s/%s: version %d, %d bytes; want version %d, %d bytes", e.Name(), c.name, v, len(seg), w.version, w.size)
			}
			if w.version == 2 {
				// The body is the records themselves, key‖value in key order.
				stride := c.keyLen + 41
				for i, k := range sortedKeys(c.recs) {
					if rec := seg[48+i*stride : 48+(i+1)*stride]; string(rec) != k+string(c.recs[k]) {
						t.Fatalf("%s/%s: record %d is %x, want %x‖%x", e.Name(), c.name, i, rec, k, c.recs[k])
					}
				}
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(seg)); got != w.digest {
				t.Errorf("%s/%s: segment digest %s, want %s", e.Name(), c.name, got, w.digest)
			}
		}
	}
}
