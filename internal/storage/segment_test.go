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
	"strings"
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

// encodeRecords seals recs and returns a copy of the segment, free for a
// test to mutate.
func encodeRecords(t *testing.T, keyLen int, recs map[string][]byte) []byte {
	t.Helper()
	return encodeCase(t, layoutCase{keyLen: keyLen, recs: recs})
}

func encodeCase(t testing.TB, c layoutCase) []byte {
	t.Helper()
	return bytes.Clone(c.seal(t, Sorted{}).Segment())
}

// storedKey is what segment seg stores of key k: under version 3 its
// s-byte window below the directory's whole bytes, else all of it.
func storedKey(seg []byte, k string) string {
	if binary.BigEndian.Uint16(seg[4:6]) != 3 {
		return k
	}
	koff := int(seg[24] / 8)
	return k[koff : koff+int(seg[25])]
}

// resealHeader recomputes the header checksum over a mutated header.
func resealHeader(seg []byte) {
	binary.BigEndian.PutUint32(seg[40:44], crc32c(seg[0:40]))
}

// resealBody recomputes the body checksum over a mutated body.
func resealBody(seg []byte) {
	end := len(seg) - segFooterSize
	binary.BigEndian.PutUint32(seg[end:], crc32c(seg[segHeaderSize:end]))
}

// lieDirectory rewrites a segment's directory so that bucket p claims
// records [p<<14, (p+1)<<14), past n for all but the first, and reseals
// it.
func lieDirectory(seg []byte) {
	dirOff := len(seg) - segFooterSize - 4*((1<<seg[24])+1)
	for off := dirOff; off < len(seg)-segFooterSize; off += 4 {
		binary.BigEndian.PutUint32(seg[off:], uint32(off-dirOff)<<12)
	}
	resealBody(seg)
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
			// Iterate yields the records in key order, each key as the
			// segment stores it: a single 16-byte key is version 3.
			want := sortedKeys(recs)
			i := 0
			x.Iterate(func(k, v []byte) bool {
				if i >= len(want) || string(k) != storedKey(seg, want[i]) || !bytes.Equal(v, recs[want[i]]) {
					t.Fatalf("iterated record %d as %x", i, k)
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("iterated %d, want %d", i, len(want))
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
		seg := encodeCase(t, c)
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
// panic or another record's value.
func TestCraftedSegmentsDegrade(t *testing.T) {
	for _, c := range layoutCases(13) {
		seg := encodeCase(t, c)
		lieDirectory(seg)
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
	seg := encodeCase(t, c)
	offsOff := int(pad8(uint64(segHeaderSize + len(c.recs)*c.keyLen)))
	binary.BigEndian.PutUint64(seg[offsOff+8*10:], 1<<40)
	resealBody(seg)
	x, err := OpenSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range c.recs {
		x.Get([]byte(k))
	}
	count := 0
	x.Iterate(func(k, v []byte) bool { count++; return true })
	if count != 9 {
		t.Fatalf("Iterate visited %d records; offset 10, which ends record 9, lies", count)
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
// full probe without panicking. The seeds hold every version, plus
// version 3 headers whose stored key width is 0, below 8 or not below
// the key length (refused), and a version 3 segment whose directory
// lies (accepted).
func FuzzOpenSegment(f *testing.F) {
	rnd := mrand.New(mrand.NewSource(17))
	for _, n := range []int{0, 3, 64} {
		// Mixed widths seed version 1, one width version 2, pseudorandom
		// 16-byte keys version 3.
		for _, c := range []layoutCase{
			{"", 8, randomRecords(rnd, n, 8)},
			{"", 8, uniformRecords(rnd, n, 8, 12)},
			{"", 16, uniformRecords(rnd, n, 16, 8)},
		} {
			f.Add(encodeCase(f, c))
		}
	}
	v3 := encodeCase(f, layoutCase{"", 16, uniformRecords(rnd, 64, 16, 8)})
	for _, s := range []byte{0, 7, 16, 200} {
		seg := bytes.Clone(v3)
		seg[25] = s
		resealHeader(seg)
		f.Add(seg)
	}
	lieDirectory(v3)
	f.Add(v3)
	f.Add([]byte("RSG1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := OpenSegment(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Iterate yields each key as the segment stores it: whole, or
		// under version 3 its window, from byte koff of a key. A probe
		// that holds it there must get the same answer from Get and
		// GetMany; and a whole key, unless a crafted directory or order
		// hides its record, never answers another record's value. (The
		// roundtrip tests check that a sealed segment's Get finds every
		// record.)
		seg := x.(*segmentBackend)
		probe := make([]byte, x.KeyLen())
		count := 0
		x.Iterate(func(k, v []byte) bool {
			if len(k) != seg.kw {
				t.Fatalf("iterated a %d-byte key from a segment storing %d", len(k), seg.kw)
			}
			copy(probe[seg.koff:], k)
			vals := [][]byte{nil, nil}
			x.GetMany([][]byte{probe, make([]byte, x.KeyLen())}, vals)
			got, ok := x.Get(probe)
			if ok != (vals[0] != nil) || ok && !bytes.Equal(got, vals[0]) || ok && len(k) == x.KeyLen() && !bytes.Equal(got, v) {
				t.Fatalf("iterated record %x with value %x: Get %x (%v), GetMany %x", k, v, got, ok, vals[0])
			}
			count++
			return count < 64
		})
	})
}

// TestEncodeSegmentBytes pins the segment encoding of every version to
// SHA-256 digests, on every engine: the uniform space of 8-byte keys is
// version 2, whose digest the writer before version 3 reproduces, the
// mixed one version 1, whose digest was recorded when version 1 was the
// only format, and the pseudorandom one version 3. Each must also be the
// size the layout declares.
func TestEncodeSegmentBytes(t *testing.T) {
	want := map[string]struct {
		version uint16
		size    int
		digest  string
	}{
		// 48-byte header, 3000 records of 8+41 bytes padded to 4, 2^10+1
		// directory entries (3000/4 records to bucket), 4-byte footer.
		"uniform": {2, 48 + 147000 + 4*1025 + 4, "7701ce5e5add16eac5b8cccc401d6d3c287969deb140ca89f5917ee39a8a531f"},
		"mixed":   {1, -1, "1927f624497eff734376e5979b3b97cc651901ba14cd8e7f776f76fe2c875b37"},
		// The same shape with 8-byte values and 9 bytes of each key.
		"labels": {3, 48 + 3000*(9+8) + 4*1025 + 4, "fa6319f2513a6748d963981c30c9dea06b752b829c0048303be9d48e573a0b1d"},
	}
	for _, c := range layoutCases(5) {
		w := want[c.name]
		for _, e := range Engines() {
			seg := c.seal(t, e).Segment()
			if v := binary.BigEndian.Uint16(seg[4:6]); v != w.version || (w.size >= 0 && len(seg) != w.size) {
				t.Errorf("%s/%s: version %d, %d bytes; want version %d, %d bytes", e.Name(), c.name, v, len(seg), w.version, w.size)
			}
			if w.version >= 2 {
				// The body is the records themselves, key‖value in key
				// order; version 3 keeps the key's s-byte window below
				// the directory's whole bytes.
				keys := sortedKeys(c.recs)
				stride := len(storedKey(seg, keys[0])) + len(c.recs[keys[0]])
				for i, k := range keys {
					if rec := seg[48+i*stride : 48+(i+1)*stride]; string(rec) != storedKey(seg, k)+string(c.recs[k]) {
						t.Fatalf("%s/%s: record %d is %x, want %x‖%x", e.Name(), c.name, i, rec, storedKey(seg, k), c.recs[k])
					}
				}
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(seg)); got != w.digest {
				t.Errorf("%s/%s: segment digest %s, want %s", e.Name(), c.name, got, w.digest)
			}
		}
	}
}

// TestTruncatedKeys: a pseudorandom space seals as version 3 at the
// least stored key width whose false-match bound holds in its fullest
// bucket. Every key is found, by Get and GetMany; a probe that differs
// from a stored key inside the window misses, and one that differs only
// below it is the documented false match: it answers the stored key's
// value. Iterate visits each record, in order, under its stored window.
func TestTruncatedKeys(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(21))
	for _, n := range []int{1, 3, 500, 3000, 20000} {
		c := layoutCase{fmt.Sprint(n), 16, uniformRecords(rnd, n, 16, 8)}
		for _, e := range Engines() {
			x := c.seal(t, e)
			seg := x.Segment()
			dirBits := uint(seg[24])
			s, koff := int(seg[25]), int(dirBits/8)
			if v := binary.BigEndian.Uint16(seg[4:6]); v != 3 || koff+s >= 16 {
				t.Fatalf("%s/%d: version %d storing [%d, %d) of each key", e.Name(), n, v, koff, koff+s)
			}
			// The fullest bucket, counted from the keys themselves.
			buckets := map[uint64]int{}
			m := 0
			for k := range c.recs {
				p := binary.BigEndian.Uint64([]byte(k)) >> (64 - dirBits)
				buckets[p]++
				m = max(m, buckets[p])
			}
			// m·2^-(8s-r) ≤ 2^-64 at s and not at s-1, r = dirBits mod 8.
			free := func(s int) int { return 8*s - int(dirBits%8) }
			if log2m := bitsFor(m); free(s)-log2m < 64 || free(s-1)-log2m >= 64 {
				t.Fatalf("%s/%d: s = %d for a fullest bucket of %d and %d directory bits", e.Name(), n, s, m, dirBits)
			}
			if l := x.Layout(); l.KeyBytes != n*s || l.ValueBytes != n*8 || l.DirBytes != 4*((1<<dirBits)+1) {
				t.Fatalf("%s/%d: layout %+v", e.Name(), n, l)
			}
			checkGetMany(t, fmt.Sprintf("%s/%d", e.Name(), n), x, c.recs)
			for k, v := range c.recs {
				got, ok := x.Get([]byte(k))
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("%s/%d: get %x = %x, %v", e.Name(), n, k, got, ok)
				}
				below, inside := []byte(k), []byte(k)
				below[15] ^= 1
				inside[koff+s-1] ^= 1
				if got, ok := x.Get(below); !ok || !bytes.Equal(got, v) {
					t.Fatalf("%s/%d: a probe differing below the window got %x, %v; want the false match %x", e.Name(), n, got, ok, v)
				}
				if _, ok := x.Get(inside); ok && c.recs[string(inside)] == nil {
					t.Fatalf("%s/%d: a probe differing inside the window matched", e.Name(), n)
				}
			}
			keys := sortedKeys(c.recs)
			i := 0
			x.Iterate(func(k, v []byte) bool {
				if want := keys[i][koff : koff+s]; string(k) != want || !bytes.Equal(v, c.recs[keys[i]]) {
					t.Fatalf("%s/%d: record %d iterated as %x, want %x", e.Name(), n, i, k, want)
				}
				i++
				return true
			})
			if i != n {
				t.Fatalf("%s/%d: iterated %d records", e.Name(), n, i)
			}
		}
	}
}

// bitsFor is ⌈log2 m⌉.
func bitsFor(m int) int {
	b := 0
	for 1<<b < m {
		b++
	}
	return b
}

// TestTruncatedKeyCollision: two 16-byte keys that agree on the stored
// window and differ only below it are refused at seal, whatever order
// they arrive in. A space whose keys are too short to truncate seals as
// version 2.
func TestTruncatedKeyCollision(t *testing.T) {
	a := bytes.Repeat([]byte{0x5a}, 16)
	b := bytes.Clone(a)
	b[15] ^= 1
	for _, e := range Engines() {
		for _, keys := range [][][]byte{{a, b}, {b, a}} {
			bld := e.NewBuilder(16, 2)
			for _, k := range keys {
				if err := bld.Put(k, []byte("cell")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bld.Seal(); !errors.Is(err, ErrDuplicateKey) {
				t.Errorf("%s: keys agreeing on the window sealed: %v", e.Name(), err)
			}
		}
		short := layoutCase{"", 8, uniformRecords(mrand.New(mrand.NewSource(1)), 100, 8, 8)}.seal(t, e)
		if v := binary.BigEndian.Uint16(short.Segment()[4:6]); v != 2 {
			t.Errorf("%s: 8-byte keys sealed as version %d", e.Name(), v)
		}
	}
}

// TestOpenSegmentRejectsStoredWidth: a version 3 header must store at
// least 8 and fewer than the key's bytes of each key, and versions 1 and
// 2 none: anything else is ErrCorruptSegment, even under valid
// checksums.
func TestOpenSegmentRejectsStoredWidth(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(22))
	v3 := encodeCase(t, layoutCase{"", 16, uniformRecords(rnd, 64, 16, 8)})
	v2 := encodeCase(t, layoutCase{"", 8, uniformRecords(rnd, 64, 8, 8)})
	for _, c := range []struct {
		seg []byte
		s   byte
	}{{v3, 0}, {v3, 7}, {v3, 16}, {v3, 17}, {v2, 9}} {
		seg := bytes.Clone(c.seg)
		seg[25] = c.s
		resealHeader(seg)
		if _, err := OpenSegment(seg); !errors.Is(err, ErrCorruptSegment) || !strings.Contains(err.Error(), "stored key width") {
			t.Errorf("version %d with stored width %d: %v", binary.BigEndian.Uint16(seg[4:6]), c.s, err)
		}
	}
}
