package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"slices"
	"testing"
	"time"
)

// unsortedBuilder is a builder holding recs, n records of keyLen-byte
// keys and 8-byte values, that did not arrive in ascending order.
func unsortedBuilder(t *testing.T, keys [][]byte) *sortedBuilder {
	t.Helper()
	b := newSortedBuilder(len(keys[0]), len(keys))
	for i, k := range keys {
		if err := b.Put(k, binary.BigEndian.AppendUint64(nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	b.ascending = false
	return b
}

// checkPlaced checks that b's records are keys in bytes.Compare order,
// each beside its own value, and that dir is their directory.
func checkPlaced(t *testing.T, b *sortedBuilder, keys [][]byte, dir []uint32, bits uint) {
	t.Helper()
	want := make([]int, len(keys))
	for i := range want {
		want[i] = i
	}
	slices.SortFunc(want, func(i, j int) int { return bytes.Compare(keys[i], keys[j]) })
	for r, i := range want {
		if got := b.key(r); !bytes.Equal(got, keys[i]) {
			t.Fatalf("n=%d: record %d has key %x, want %x", len(keys), r, got, keys[i])
		}
		if v := b.buf[segHeaderSize+r*b.stride()+b.keyLen:][:8]; binary.BigEndian.Uint64(v) != uint64(i) {
			t.Fatalf("n=%d: record %d lost its value", len(keys), r)
		}
		p := loadPrefix(keys[i]) >> (64 - bits)
		if uint32(r) < dir[p] || uint32(r) >= dir[p+1] {
			t.Fatalf("n=%d: record %d outside its bucket %d [%d, %d)", len(keys), r, p, dir[p], dir[p+1])
		}
	}
	if dir[len(dir)-1] != uint32(len(keys)) {
		t.Fatalf("n=%d: directory ends at %d", len(keys), dir[len(dir)-1])
	}
}

func randomKeys(rnd *mrand.Rand, n, keyLen int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, keyLen)
		rnd.Read(keys[i])
	}
	return keys
}

// TestPlaceRecordsMatchesCompare: the radix placement puts random
// 16-byte keys in bytes.Compare order, from one record to one shard of
// a benchmark build, across the sizes where the directory grows a bit
// (dirBitsFor(n>>2) steps at n = 4·2^k + 4).
func TestPlaceRecordsMatchesCompare(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(20))
	for _, n := range []int{1, 3, 63, 64, 67, 68, 4099, 4100, 4101, 340000} {
		keys := randomKeys(rnd, n, 16)
		b := unsortedBuilder(t, keys)
		bits := dirBitsFor(n>>2, 16)
		dir, _ := b.directory(bits)
		checkPlaced(t, b, keys, dir, bits)
	}
	// No records seal to an empty segment.
	if _, err := newSortedBuilder(16, 0).Seal(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceRecordsSharedPrefix: 2^17 keys that agree on their top 24
// bits land in one directory bucket, which is sorted a byte at a time
// rather than by an insertion sort of the whole bucket: it takes about
// as long as the same number of uniform keys, where a quadratic bucket
// would take thousands of times longer.
func TestPlaceRecordsSharedPrefix(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(21))
	const n = 1 << 17
	bits := dirBitsFor(n>>2, 16)
	place := func(keys [][]byte) time.Duration {
		b := unsortedBuilder(t, keys)
		start := time.Now()
		dir, _ := b.directory(bits)
		took := time.Since(start)
		checkPlaced(t, b, keys, dir, bits)
		return took
	}
	uniform := place(randomKeys(rnd, n, 16))
	shared := randomKeys(rnd, n, 16)
	for _, k := range shared {
		copy(k, []byte{0xa5, 0x5a, 0xc3})
	}
	if took := place(shared); took > 20*uniform+time.Second {
		t.Fatalf("%d keys sharing 24 bits placed in %v, uniform keys in %v", n, took, uniform)
	}
}

// TestUnsortedDuplicateRefused: a key Put twice, apart, is refused with
// ErrDuplicateKey by the radix placement's seal, for 8-byte keys
// (segment v2) and for 16-byte labels (segment v3).
func TestUnsortedDuplicateRefused(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(22))
	for _, tc := range []struct {
		keyLen  int
		version uint16
	}{{8, 2}, {16, 3}} {
		keys := randomKeys(rnd, 1000, tc.keyLen)
		// Sealed without the duplicate, the space is of the version
		// under test.
		seg, err := unsortedBuilder(t, keys).seal()
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.BigEndian.Uint16(seg[4:6]); v != tc.version {
			t.Fatalf("%d-byte keys sealed as v%d, want v%d", tc.keyLen, v, tc.version)
		}
		keys[700] = slices.Clone(keys[300])
		if _, err := unsortedBuilder(t, keys).seal(); !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("v%d: duplicate key sealed with %v, want ErrDuplicateKey", tc.version, err)
		}
	}
}
