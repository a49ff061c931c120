package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand"
	"testing"
	"unsafe"

	"rsse/internal/race"
)

// ref256 is suite 1 by definition: a fresh crypto/hmac over
// crypto/sha256 per call, all 32 output bytes.
func ref256(k Key, data []byte) [KeySize]byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write(data)
	var out [KeySize]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// TestSuite256MatchesHMAC: every evaluation path of a suite-1 Hasher —
// plain, the label helpers, the labelled KDF — is HMAC-SHA-256 of the
// same bytes suite 0 feeds HMAC-SHA-512: same key schedule, same labels.
func TestSuite256MatchesHMAC(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var k Key
		rnd.Read(k[:])
		h := NewHasherSuite(SuiteSHA256, k)
		if h.suite != SuiteSHA256 {
			t.Fatal("constructor lost the suite")
		}
		// Vary input length across the SHA-256 block boundary.
		for _, n := range []int{0, 1, 9, 31, 32, 55, 56, 63, 64, 65, 1000} {
			data := make([]byte, n)
			rnd.Read(data)
			if h.Eval(data) != ref256(k, data) {
				t.Fatalf("Eval(%d bytes) disagrees with crypto/hmac over sha256", n)
			}
		}
		v := rnd.Uint64()
		be := binary.BigEndian.AppendUint64(nil, v)
		if h.EvalUint64(v) != ref256(k, be) {
			t.Fatal("EvalUint64 disagrees")
		}
		if h.EvalByteUint64(7, v) != ref256(k, append([]byte{7}, be...)) {
			t.Fatal("EvalByteUint64 disagrees")
		}
		if h.EvalString("keyword") != ref256(k, []byte("keyword")) {
			t.Fatal("EvalString disagrees")
		}
		if h.Derive("sse/loc") != Key(ref256(k, []byte("rsse/kdf/sse/loc"))) {
			t.Fatal("Derive is not HMAC-SHA-256 of the suite-0 KDF label")
		}
		if h.DeriveN("sse/bkt", v) != Key(ref256(k, append([]byte("rsse/kdf/sse/bkt/"), be...))) {
			t.Fatal("DeriveN is not HMAC-SHA-256 of the suite-0 KDF label")
		}
	}
}

// TestSuite256SnapshotRestore: the chaining-value snapshot restores a
// suite-1 hasher exactly, whatever key it held before, and rekeying
// after a Restore still works (Restore writes into the marshaled states
// SetKey rebuilds).
func TestSuite256SnapshotRestore(t *testing.T) {
	var k1, k2 Key
	k1[0], k2[0] = 1, 2
	snap := NewHasherSuite(SuiteSHA256, k1).Snapshot()
	if !snap.Valid() {
		t.Fatal("captured snapshot is not Valid")
	}
	h := NewHasherSuite(SuiteSHA256, k2)
	h.Restore(&snap)
	for _, data := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{3}, 200)} {
		if h.Eval(data) != ref256(k1, data) {
			t.Fatalf("restored hasher disagrees with crypto/hmac on %d bytes", len(data))
		}
	}
	h.SetKey(k2)
	if h.Eval([]byte("x")) != ref256(k2, []byte("x")) {
		t.Fatal("rekey after Restore wrong")
	}
}

// TestSnapshotAgainstAppendBinary is init's layout check with the
// evidence spelled out: for both suites a keyed digest's marshaled
// state is magic ‖ chaining value ‖ zero block buffer ‖ length = one
// block, so the chaining value is all a Snapshot has to keep.
func TestSnapshotAgainstAppendBinary(t *testing.T) {
	for _, s := range Suites() {
		var k Key
		k[5] = 9
		h := NewHasherSuite(s, k)
		for name, st := range map[string][]byte{"inner": h.istate, "outer": h.ostate} {
			if len(st) != stateCV+h.cv+h.block+8 {
				t.Fatalf("%v %s: marshaled state is %d bytes, want %d", s, name, len(st), stateCV+h.cv+h.block+8)
			}
			if buf := st[stateCV+h.cv : stateCV+h.cv+h.block]; !bytes.Equal(buf, make([]byte, h.block)) {
				t.Fatalf("%v %s: block buffer of a one-block digest is not empty", s, name)
			}
			if n := binary.BigEndian.Uint64(st[len(st)-8:]); n != uint64(h.block) {
				t.Fatalf("%v %s: absorbed length %d, want one block (%d)", s, name, n, h.block)
			}
		}
		snap := h.Snapshot()
		if !bytes.Equal(snap.ist[:h.cv], h.istate[stateCV:stateCV+h.cv]) || !bytes.Equal(snap.ost[:h.cv], h.ostate[stateCV:stateCV+h.cv]) {
			t.Fatalf("%v: Snapshot did not capture the chaining values", s)
		}
	}
	if sz := unsafe.Sizeof(Snapshot{}); sz > 136 {
		t.Errorf("Snapshot is %d bytes; the stag cache entry budgets two 64-byte chaining values", sz)
	}
}

// TestRestoreRefusesOtherSuite: a snapshot names its suite by its
// chaining-value length and is never reinterpreted under another hash.
func TestRestoreRefusesOtherSuite(t *testing.T) {
	snap := NewHasher(Key{}).Snapshot()
	defer func() {
		if recover() == nil {
			t.Error("a suite-0 snapshot was restored into a suite-1 hasher")
		}
	}()
	NewHasherSuite(SuiteSHA256, Key{}).Restore(&snap)
}

func TestSuitesDisagree(t *testing.T) {
	var k Key
	k[0] = 4
	if NewHasher(k).Eval([]byte("x")) == NewHasherSuite(SuiteSHA256, k).Eval([]byte("x")) {
		t.Error("both suites computed the same PRF value")
	}
	for _, s := range Suites() {
		if !s.Valid() {
			t.Errorf("suite %d has a table row but is not Valid", s)
		}
		for o := s + 1; o < NumSuites; o++ {
			if s.String() == o.String() {
				t.Errorf("suites %d and %d share the name %q", s, o, s)
			}
		}
	}
	if Suite(NumSuites).Valid() || Suite(255).Valid() {
		t.Error("Valid does not separate the implemented suites from the rest")
	}
}

// forcePortable sends F and F2 down the portable branch until t ends, so
// a machine with SHA extensions still tests the code every other machine
// runs.
func forcePortable(t *testing.T) {
	native := useSHANI
	useSHANI = false
	t.Cleanup(func() { useSHANI = native })
}

// refF is suite 2 by definition: crypto/sha256 over the 41 message bytes
// k ‖ tag ‖ BE64(x).
func refF(k Key, tag byte, x uint64) [KeySize]byte {
	return sha256.Sum256(binary.BigEndian.AppendUint64(append(bytes.Clone(k[:]), tag), x))
}

// TestBlockPRFKnownAnswers pins F and both halves of F2 to plain
// crypto/sha256 over the 41-byte message key ‖ tag ‖ BE64(x) — the whole
// definition of suite 2 — on fixed vectors anyone can recompute, and on
// random ones: once on the path this machine picks, once on the portable
// one.
func TestBlockPRFKnownAnswers(t *testing.T) {
	t.Run(FImpl(), testBlockPRFKnownAnswers)
	t.Run("forced-portable", func(t *testing.T) {
		forcePortable(t)
		if FImpl() != "portable" {
			t.Fatalf("FImpl() = %q with the dispatch forced off", FImpl())
		}
		testBlockPRFKnownAnswers(t)
	})
}

func testBlockPRFKnownAnswers(t *testing.T) {
	var seq Key
	for i := range seq {
		seq[i] = byte(i)
	}
	vectors := []struct {
		k    Key
		tag  byte
		x    uint64
		want string // sha256sum of the 41 message bytes, computed outside this package
	}{
		{Key{}, 'g', 0, "622cc536ba8bfd55006be84dc89077f6be7ad807c74c2d57c1af546a63336573"},
		{Key{}, 'g', 1, "9c51502c541b953c4b248f98dc0b6084e40c211c8120b77d8c513e60108ef675"},
		{seq, 'l', 1, "55f0be1182adb4605f1d5ec760763d6ab4f84af55cf28b1cf7a7f6909cc8245f"},
		{seq, 'e', 0, "5a2d75021d5611b237753dbd147a54aac54e02cdc01c728688512140e5610d93"},
		{seq, 'b', 1 << 40, "871876182f3832c0282412f5338852d525fd4ecb0c1a3c675c96ab2a2b16ba93"},
	}
	for i, v := range vectors {
		got := F(v.k, v.tag, v.x)
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("F(%x.., %q, %d) = %x, want %s", v.k[:4], v.tag, v.x, got, v.want)
		}
		// F2 pairs each vector with the next one.
		w := vectors[(i+1)%len(vectors)]
		var o0, o1 [KeySize]byte
		F2(&o0, &o1, &v.k, v.tag, v.x, &w.k, w.tag, w.x)
		if hex.EncodeToString(o0[:]) != v.want || hex.EncodeToString(o1[:]) != w.want {
			t.Errorf("F2 on vectors %d and %d = %x, %x", i, (i+1)%len(vectors), o0, o1)
		}
	}
	if fLen+1+8 > sha256.BlockSize {
		t.Fatalf("F's message of %d bytes does not pad into one block", fLen)
	}
	rnd := mrand.New(mrand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var k, k1 Key
		rnd.Read(k[:])
		rnd.Read(k1[:])
		tag, x := byte(rnd.Intn(256)), rnd.Uint64()
		if F(k, tag, x) != refF(k, tag, x) {
			t.Fatal("F is not SHA-256(k ‖ tag ‖ BE64(x))")
		}
		if F(k, tag, x) == F(k, tag^1, x) || F(k, tag, x) == F(k, tag, x+1) {
			t.Fatal("F ignores its tag or its counter")
		}
		// Outputs written over the keys, crosswise: both keys must be
		// read before either output is written.
		a, b := k, k1
		F2((*[KeySize]byte)(&b), (*[KeySize]byte)(&a), &a, tag, x, &b, tag+1, x+1)
		if b != refF(k, tag, x) || a != refF(k1, tag+1, x+1) {
			t.Fatal("F2 wrong when its outputs alias its keys")
		}
	}
	if !race.Enabled {
		var k, k1 Key
		if n := testing.AllocsPerRun(200, func() { k = F(k, 'l', 7) }); n != 0 {
			t.Errorf("F allocates %v objects per evaluation, want 0", n)
		}
		f2 := func() { F2((*[KeySize]byte)(&k), (*[KeySize]byte)(&k1), &k, 'g', 0, &k, 'g', 1) }
		if n := testing.AllocsPerRun(200, f2); n != 0 {
			t.Errorf("F2 allocates %v objects per pair, want 0", n)
		}
	}
}

// FuzzBlockPRF: F and each half of F2, with its own key, tag and counter,
// equal crypto/sha256 of the 41-byte message on whatever path this
// machine takes.
func FuzzBlockPRF(f *testing.F) {
	f.Add(make([]byte, 2*KeySize), byte('g'), byte('g'), uint64(0), uint64(1))
	f.Add(bytes.Repeat([]byte{0xff}, 2*KeySize), byte(0), byte(0xff), uint64(1)<<63, ^uint64(0))
	f.Fuzz(func(t *testing.T, keys []byte, tag0, tag1 byte, x0, x1 uint64) {
		var k0, k1 Key
		copy(k0[:], keys)
		if len(keys) > KeySize {
			copy(k1[:], keys[KeySize:])
		}
		if F(k0, tag0, x0) != refF(k0, tag0, x0) {
			t.Fatalf("F(%x, %#x, %#x) is not SHA-256 of its message", k0, tag0, x0)
		}
		var o0, o1 [KeySize]byte
		F2(&o0, &o1, &k0, tag0, x0, &k1, tag1, x1)
		if o0 != refF(k0, tag0, x0) || o1 != refF(k1, tag1, x1) {
			t.Fatalf("F2 halves (%x, %#x, %#x), (%x, %#x, %#x) are not SHA-256 of their messages", k0, tag0, x0, k1, tag1, x1)
		}
	})
}

func TestSuitePoolsAreSeparate(t *testing.T) {
	var k Key
	k[0] = 9
	for i := 0; i < 4; i++ {
		h0, h1 := GetHasher(k), GetHasherSuite(SuiteSHA256, k)
		if h0.suite != SuiteSHA512 || h1.suite != SuiteSHA256 {
			t.Fatal("a pool handed out a hasher of the other suite")
		}
		if h0.Eval([]byte("p")) != refEval(k, []byte("p")) || h1.Eval([]byte("p")) != ref256(k, []byte("p")) {
			t.Fatal("pooled hasher wrong")
		}
		PutHasher(h0)
		PutHasher(h1)
	}
}

// TestHasherAllocsSHA256 is TestHasherAllocs for suite 1, plus the
// snapshot round trip both suites' cache hits run.
func TestHasherAllocsSHA256(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	var k Key
	k[0] = 3
	for _, s := range Suites() {
		h := NewHasherSuite(s, k)
		data := []byte("allocation-guard-keyword")
		var snap Snapshot
		checks := []struct {
			name string
			max  float64
			f    func()
		}{
			{"Snapshot+Restore", 0, func() { snap = h.Snapshot(); h.Restore(&snap) }},
			{"Eval", 0, func() { h.Eval(data) }},
			{"EvalUint64", 0, func() { h.EvalUint64(77) }},
			{"EvalByteUint64", 0, func() { h.EvalByteUint64(5, 77) }},
			{"Derive", 0, func() { h.Derive("label") }},
			{"DeriveN", 0, func() { h.DeriveN("label", 3) }},
			{"SetKey", 0, func() { h.SetKey(k) }},
			{"Get/PutHasherSuite", 0.1, func() { PutHasher(GetHasherSuite(s, k)) }},
		}
		for _, c := range checks {
			c.f()
			if n := testing.AllocsPerRun(200, c.f); n > c.max {
				t.Errorf("%v %s: %v allocs/op, want <= %v", s, c.name, n, c.max)
			}
		}
	}
}
