package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"runtime"
	"sort"
	"testing"
)

// fill builds a backend on e from the given records.
func fill(t testing.TB, e Engine, keyLen int, recs map[string][]byte) Backend {
	t.Helper()
	return layoutCase{keyLen: keyLen, recs: recs}.seal(t, e)
}

// seal builds the case's backend on e.
func (c layoutCase) seal(t testing.TB, e Engine) Backend {
	t.Helper()
	b := e.NewBuilder(c.keyLen, len(c.recs))
	for k, v := range c.recs {
		if err := b.Put([]byte(k), v); err != nil {
			t.Fatalf("%s: put: %v", e.Name(), err)
		}
	}
	x, err := b.Seal()
	if err != nil {
		t.Fatalf("%s: seal: %v", e.Name(), err)
	}
	return x
}

func randomRecords(rnd *mrand.Rand, n, keyLen int) map[string][]byte {
	recs := make(map[string][]byte, n)
	for len(recs) < n {
		k := make([]byte, keyLen)
		rnd.Read(k)
		v := make([]byte, rnd.Intn(40))
		rnd.Read(v)
		recs[string(k)] = v
	}
	return recs
}

// uniformRecords draws n records of the shape every SSE dictionary
// has: a pseudorandom keyLen-byte label and a cell of one fixed width.
func uniformRecords(rnd *mrand.Rand, n, keyLen, width int) map[string][]byte {
	recs := make(map[string][]byte, n)
	for len(recs) < n {
		k := make([]byte, keyLen)
		rnd.Read(k)
		v := make([]byte, width)
		rnd.Read(v)
		recs[string(k)] = v
	}
	return recs
}

// mixedRecords draws n records of the tuple store's shape with user
// payloads of differing lengths: big-endian ids and values of 16, 32
// or 48 bytes.
func mixedRecords(rnd *mrand.Rand, n int) map[string][]byte {
	recs := make(map[string][]byte, n)
	for len(recs) < n {
		k := binary.BigEndian.AppendUint64(nil, uint64(rnd.Intn(4*n)))
		v := make([]byte, 16*(1+rnd.Intn(3)))
		rnd.Read(v)
		recs[string(k)] = v
	}
	return recs
}

// layoutCase is one key space of the layout tests.
type layoutCase struct {
	name   string
	keyLen int
	recs   map[string][]byte
}

// layoutCases are the three segment versions: 8-byte keys and one value
// width (version 2), mixed widths (a tuple store with user payloads,
// version 1) and 16-byte pseudorandom keys of one value width (every SSE
// dictionary, version 3).
func layoutCases(seed int64) []layoutCase {
	rnd := mrand.New(mrand.NewSource(seed))
	return []layoutCase{
		{"uniform", 8, keyPrefixes(uniformRecords(rnd, 3000, 16, 41), 8)},
		{"mixed", 8, mixedRecords(rnd, 1000)},
		{"labels", 16, uniformRecords(rnd, 3000, 16, 8)},
	}
}

// keyPrefixes is recs under the first n bytes of each key, which must
// stay distinct.
func keyPrefixes(recs map[string][]byte, n int) map[string][]byte {
	out := make(map[string][]byte, len(recs))
	for k, v := range recs {
		out[k[:n]] = v
	}
	if len(out) != len(recs) {
		panic("key prefixes collide")
	}
	return out
}

func TestEnginesRoundtrip(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(1))
	cases := []layoutCase{
		{"random-2", 2, randomRecords(rnd, 500, 2)},
		{"random-8", 8, randomRecords(rnd, 500, 8)},
		{"random-16", 16, randomRecords(rnd, 500, 16)},
	}
	cases = append(cases, layoutCases(1)...)
	for _, e := range Engines() {
		for _, c := range cases {
			keyLen, recs := c.keyLen, c.recs
			x := c.seal(t, e)
			if x.Len() != len(recs) {
				t.Fatalf("%s/%s: len = %d, want %d", e.Name(), c.name, x.Len(), len(recs))
			}
			for k, v := range recs {
				got, ok := x.Get([]byte(k))
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("%s/%s: get %x = %x,%v want %x", e.Name(), c.name, k, got, ok, v)
				}
			}
			// Misses: mutate one byte of an existing key.
			for k := range recs {
				miss := []byte(k)
				miss[0] ^= 0xFF
				if _, ok := x.Get(miss); ok && recs[string(miss)] == nil {
					t.Fatalf("%s/%s: phantom key %x", e.Name(), c.name, miss)
				}
				break
			}
			if _, ok := x.Get(make([]byte, keyLen+1)); ok {
				t.Fatalf("%s/%s: wrong-length key found", e.Name(), c.name)
			}
			checkGetMany(t, e.Name()+"/"+c.name, x, recs)
		}
	}
}

// TestGetManyFoundEmptyValue: GetMany's nil means a miss, so a found
// empty value comes back non-nil on every engine, alone and in a batch.
func TestGetManyFoundEmptyValue(t *testing.T) {
	for _, e := range Engines() {
		b := e.NewBuilder(2, 0)
		if err := b.Put([]byte("aa"), nil); err != nil {
			t.Fatal(err)
		}
		x, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		for _, keys := range [][][]byte{{[]byte("aa")}, {[]byte("aa"), []byte("zz")}} {
			vals := make([][]byte, len(keys))
			x.GetMany(keys, vals)
			if vals[0] == nil || len(vals[0]) != 0 || (len(keys) > 1 && vals[1] != nil) {
				t.Errorf("%s: GetMany of %d keys = %q (found nil %v)", e.Name(), len(keys), vals, vals[0] == nil)
			}
		}
	}
}

// checkGetMany: GetMany answers what Get does, key by key, in batches of
// one, of a lockstep chunk and of more — hits, empty values, misses and
// a wrong-length key mixed — with nil for a miss and never for a hit.
// A miss differs from a stored key in byte 8 (or the last byte of a
// shorter key), which a version 3 segment's stored window always holds,
// so it misses there too rather than false-matching.
func checkGetMany(t *testing.T, what string, x Backend, recs map[string][]byte) {
	t.Helper()
	var keys [][]byte
	for k := range recs {
		keys = append(keys, []byte(k))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	keys = keys[:min(len(keys), 45)]
	for _, k := range keys[:min(len(keys), 3)] {
		miss := bytes.Clone(k)
		miss[min(8, len(miss)-1)] ^= 0x5A
		if recs[string(miss)] == nil {
			keys = append(keys, miss)
		}
	}
	for k, v := range recs {
		if len(v) == 0 {
			keys = append(keys, []byte(k))
			break
		}
	}
	keys = append(keys, make([]byte, x.KeyLen()+1))
	for _, n := range []int{1, getManyLanes, len(keys)} {
		for lo := 0; lo < len(keys); lo += n {
			batch := keys[lo:min(lo+n, len(keys))]
			vals := make([][]byte, len(batch))
			for i := range vals {
				vals[i] = []byte("stale")
			}
			x.GetMany(batch, vals)
			for i, k := range batch {
				v, ok := x.Get(k)
				if ok != (vals[i] != nil) || !bytes.Equal(v, vals[i]) {
					t.Fatalf("%s: batch of %d, key %x: GetMany = %q (nil %v), Get = %q, %v", what, n, k, vals[i], vals[i] == nil, v, ok)
				}
			}
		}
	}
}

func TestIterateAscendingOrder(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(2))
	recs := randomRecords(rnd, 300, 16)
	want := make([]string, 0, len(recs))
	for k := range recs {
		want = append(want, k)
	}
	sort.Strings(want)
	for _, e := range Engines() {
		x := fill(t, e, 16, recs)
		var got []string
		x.Iterate(func(k, v []byte) bool {
			if !bytes.Equal(v, recs[string(k)]) {
				t.Fatalf("%s: iterate value mismatch at %x", e.Name(), k)
			}
			got = append(got, string(k))
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: iterated %d records, want %d", e.Name(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: iterate order broken at %d", e.Name(), i)
			}
		}
		// Early stop.
		count := 0
		x.Iterate(func(k, v []byte) bool { count++; return count < 5 })
		if count != 5 {
			t.Fatalf("%s: early stop visited %d", e.Name(), count)
		}
	}
}

func TestDuplicateAndKeyLenErrors(t *testing.T) {
	for _, e := range Engines() {
		// Adjacent duplicate (ascending input).
		b := e.NewBuilder(4, 0)
		if err := b.Put([]byte("aaaa"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		err := b.Put([]byte("aaaa"), []byte("2"))
		if err == nil {
			_, err = b.Seal()
		}
		if !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("%s: adjacent dup error = %v", e.Name(), err)
		}

		// Non-adjacent duplicate in unsorted input.
		b = e.NewBuilder(4, 0)
		for _, k := range []string{"zzzz", "aaaa", "mmmm", "zzzz"} {
			if perr := b.Put([]byte(k), nil); perr != nil {
				err = perr
				break
			}
			err = nil
		}
		if err == nil {
			_, err = b.Seal()
		}
		if !errors.Is(err, ErrDuplicateKey) {
			t.Errorf("%s: non-adjacent dup error = %v", e.Name(), err)
		}

		// Wrong key length.
		b = e.NewBuilder(4, 0)
		if err := b.Put([]byte("abc"), nil); !errors.Is(err, ErrKeyLen) {
			t.Errorf("%s: key length error = %v", e.Name(), err)
		}

		// Put/Seal after Seal.
		b = e.NewBuilder(4, 0)
		if _, err := b.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := b.Put([]byte("abcd"), nil); !errors.Is(err, ErrSealed) {
			t.Errorf("%s: post-seal put error = %v", e.Name(), err)
		}
		if _, err := b.Seal(); !errors.Is(err, ErrSealed) {
			t.Errorf("%s: double seal error = %v", e.Name(), err)
		}
	}
}

func TestEmptyBackend(t *testing.T) {
	for _, e := range Engines() {
		x := fill(t, e, 16, nil)
		if x.Len() != 0 {
			t.Fatalf("%s: empty len = %d", e.Name(), x.Len())
		}
		if _, ok := x.Get(make([]byte, 16)); ok {
			t.Fatalf("%s: empty backend found a key", e.Name())
		}
		x.Iterate(func(k, v []byte) bool { t.Fatalf("%s: empty iterate", e.Name()); return false })
	}
}

// TestSortedSkewedKeys exercises the directory's degenerate case: small
// sequential big-endian ids share all their leading bytes, so every
// record lands in one directory bucket.
func TestSortedSkewedKeys(t *testing.T) {
	for _, e := range Engines() {
		b := e.NewBuilder(8, 0)
		for i := uint64(1); i <= 2000; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], i)
			if err := b.Put(k[:], binary.BigEndian.AppendUint64(nil, i*i)); err != nil {
				t.Fatal(err)
			}
		}
		x, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 2000; i++ {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], i)
			v, ok := x.Get(k[:])
			if !ok || binary.BigEndian.Uint64(v) != i*i {
				t.Fatalf("%s: id %d lookup failed", e.Name(), i)
			}
		}
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], 5000)
		if _, ok := x.Get(k[:]); ok {
			t.Fatalf("%s: phantom id", e.Name())
		}
	}
}

// TestBuilderCopiesInput ensures builders do not alias caller buffers.
func TestBuilderCopiesInput(t *testing.T) {
	for _, e := range Engines() {
		b := e.NewBuilder(4, 0)
		key := []byte("k000")
		val := []byte("value")
		if err := b.Put(key, val); err != nil {
			t.Fatal(err)
		}
		key[0], val[0] = 'X', 'X'
		x, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := x.Get([]byte("k000"))
		if !ok || string(v) != "value" {
			t.Fatalf("%s: builder aliased caller memory: %q %v", e.Name(), v, ok)
		}
	}
}

// TestByName: every engine is found under its name, and the
// deprecated "map" selects Sorted.
func TestByName(t *testing.T) {
	for _, name := range []string{"sorted", "disk"} {
		e, err := ByName(name)
		if err != nil || e.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, e, err)
		}
	}
	if e, err := ByName("map"); err != nil || e != (Sorted{}) {
		t.Fatalf(`ByName("map") = %v, %v; want Sorted`, e, err)
	}
	if _, err := ByName("btree"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if OrDefault(nil).Name() != Default().Name() {
		t.Fatal("OrDefault(nil) is not the default engine")
	}
	if e := (Sorted{}); OrDefault(e).Name() != "sorted" {
		t.Fatal("OrDefault dropped an explicit engine")
	}
}

// TestGetAppendKeepsNextRecord: a value returned by Get has no spare
// capacity, so appending to it copies instead of writing over the
// record laid out after it — on every engine and both layouts.
func TestGetAppendKeepsNextRecord(t *testing.T) {
	for _, e := range Engines() {
		for _, c := range layoutCases(3) {
			x := c.seal(t, e)
			for _, k := range sortedKeys(c.recs) {
				v, ok := x.Get([]byte(k))
				if !ok {
					t.Fatalf("%s/%s: miss on %x", e.Name(), c.name, k)
				}
				if cap(v) != len(v) {
					t.Fatalf("%s/%s: value of %x has cap %d, len %d", e.Name(), c.name, k, cap(v), len(v))
				}
				_ = append(v, bytes.Repeat([]byte{0xA5}, 64)...)
			}
			for k, want := range c.recs {
				if got, ok := x.Get([]byte(k)); !ok || !bytes.Equal(got, want) {
					t.Fatalf("%s/%s: record %x changed by an append to its neighbour", e.Name(), c.name, k)
				}
			}
		}
	}
}

// TestSortedHintBoundsValueBytes: a capacity hint reserves room for
// every key but for at most maxValueHint bytes of values, so a space
// whose first value is wide — a tuple store whose first tuple carries a
// 1 MiB payload — does not reserve the hint times that width (here 1 TiB).
func TestSortedHintBoundsValueBytes(t *testing.T) {
	const hint, wide = 1 << 20, 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := Sorted{}.NewBuilder(8, hint)
	first, second := make([]byte, 8), []byte{0, 0, 0, 0, 0, 0, 0, 1}
	if err := b.Put(first, make([]byte, wide)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(second, []byte("narrow")); err != nil {
		t.Fatal(err)
	}
	x, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*(hint*8+maxValueHint)); got > bound {
		t.Errorf("two records with a hint of %d allocated %d bytes, want <= %d", hint, got, bound)
	}
	if v, ok := x.Get(first); !ok || len(v) != wide {
		t.Fatalf("wide record: %d bytes, %v", len(v), ok)
	}
	if v, ok := x.Get(second); !ok || string(v) != "narrow" {
		t.Fatalf("narrow record: %q, %v", v, ok)
	}
}
