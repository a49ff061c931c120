package prf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha512"
	"encoding/binary"
	mrand "math/rand"
	"testing"

	"rsse/internal/race"
)

// refEval is the definitionally-correct PRF: a fresh crypto/hmac
// instance per call. The Hasher's marshaled-state fast path must agree
// with it bit for bit on every input.
func refEval(k Key, data []byte) [KeySize]byte {
	mac := hmac.New(sha512.New, k[:])
	mac.Write(data)
	var out [KeySize]byte
	copy(out[:], mac.Sum(nil))
	return out
}

func TestHasherMatchesHMAC(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var k Key
		rnd.Read(k[:])
		h := NewHasher(k)
		// Vary input length across the SHA-512 block boundary.
		for _, n := range []int{0, 1, 9, 32, 63, 64, 127, 128, 129, 1000} {
			data := make([]byte, n)
			rnd.Read(data)
			if got, want := h.Eval(data), refEval(k, data); got != want {
				t.Fatalf("Hasher.Eval(%d bytes) disagrees with crypto/hmac", n)
			}
		}
	}
}

func TestHasherRekey(t *testing.T) {
	var k1, k2 Key
	k1[0], k2[0] = 1, 2
	h := NewHasher(k1)
	if h.Eval([]byte("x")) != refEval(k1, []byte("x")) {
		t.Fatal("initial key wrong")
	}
	h.SetKey(k2)
	if h.Eval([]byte("x")) != refEval(k2, []byte("x")) {
		t.Fatal("rekeyed evaluation wrong")
	}
	h.SetKey(k1)
	if h.Eval([]byte("x")) != refEval(k1, []byte("x")) {
		t.Fatal("re-rekeyed evaluation wrong")
	}
}

// TestHasherSnapshotRestore: a hasher restored from a snapshot — what
// the server's derived-state cache does instead of a key schedule —
// evaluates exactly as crypto/hmac under the snapshotted key, whatever
// key the hasher held before.
func TestHasherSnapshotRestore(t *testing.T) {
	var k1, k2 Key
	k1[0], k2[0] = 1, 2
	snap := NewHasher(k1).Snapshot()
	if !snap.Valid() || (&Snapshot{}).Valid() {
		t.Fatal("Valid does not tell a captured snapshot from the zero value")
	}
	h := NewHasher(k2)
	h.Restore(&snap)
	for _, data := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{3}, 200)} {
		if h.Eval(data) != refEval(k1, data) {
			t.Fatalf("restored hasher disagrees with crypto/hmac on %d bytes", len(data))
		}
	}
}

func TestHasherHelpersMatchPackage(t *testing.T) {
	k, _ := KeyFromBytes(bytes.Repeat([]byte{11}, KeySize))
	h := NewHasher(k)
	if h.EvalString("keyword") != Eval(k, []byte("keyword")) {
		t.Error("EvalString disagrees")
	}
	if h.EvalUint64(0xdeadbeefcafe) != EvalUint64(k, 0xdeadbeefcafe) {
		t.Error("EvalUint64 disagrees")
	}
	var label [9]byte
	label[0] = 7
	binary.BigEndian.PutUint64(label[1:], 12345)
	if h.EvalByteUint64(7, 12345) != Eval(k, label[:]) {
		t.Error("EvalByteUint64 disagrees with the 9-byte label encoding")
	}
	if h.Derive("epoch") != Derive(k, "epoch") {
		t.Error("Derive disagrees")
	}
	if h.DeriveN("epoch", 42) != DeriveN(k, "epoch", 42) {
		t.Error("DeriveN disagrees")
	}
}

func TestHasherPoolRoundTrip(t *testing.T) {
	var k Key
	k[0] = 9
	h := GetHasher(k)
	got := h.Eval([]byte("pooled"))
	PutHasher(h)
	if got != refEval(k, []byte("pooled")) {
		t.Error("pooled hasher wrong")
	}
}

// TestHasherAllocs pins the zero-allocation property of the steady-state
// PRF paths; a regression here silently re-inflates every query.
func TestHasherAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	var k Key
	k[0] = 3
	h := NewHasher(k)
	data := []byte("allocation-guard-keyword")
	checks := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Hasher.Eval", 0, func() { h.Eval(data) }},
		{"Hasher.EvalString", 0, func() { h.EvalString("allocation-guard-keyword") }},
		{"Hasher.EvalUint64", 0, func() { h.EvalUint64(77) }},
		{"Hasher.EvalByteUint64", 0, func() { h.EvalByteUint64(5, 77) }},
		{"Hasher.Derive", 0, func() { h.Derive("label") }},
		{"Hasher.DeriveN", 0, func() { h.DeriveN("label", 3) }},
		{"Hasher.SetKey", 0, func() { h.SetKey(k) }},
		// Pooled one-shots: a GC emptying the pool costs one refill, so
		// allow a small average rather than exactly zero.
		{"Eval", 0.1, func() { Eval(k, data) }},
		{"Derive", 0.1, func() { Derive(k, "label") }},
	}
	for _, c := range checks {
		c.f() // warm up (grows lbuf once)
		if n := testing.AllocsPerRun(200, c.f); n > c.max {
			t.Errorf("%s: %v allocs/op, want <= %v", c.name, n, c.max)
		}
	}
}

func BenchmarkHasherEval(b *testing.B) {
	for _, s := range []Suite{SuiteSHA512, SuiteSHA256} {
		b.Run(s.String(), func(b *testing.B) {
			var k Key
			k[0] = 1
			h := NewHasherSuite(s, k)
			data := []byte("benchmark-keyword")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Eval(data)
			}
		})
	}
}

// BenchmarkBlockPRF is suite 2's whole per-evaluation cost — key, tag and
// counter in, 32 bytes out, nothing keyed beforehand — beside
// BenchmarkHasherEval, which leaves the key schedule out.
func BenchmarkBlockPRF(b *testing.B) {
	var k Key
	k[0] = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k = F(k, 'l', uint64(i))
	}
}

// BenchmarkBlockPRFPair is F2 on the GGM step's pair, F(k,'g',0) and
// F(k,'g',1), written over the key like a level of the tree: against
// two BenchmarkBlockPRF, what the interleaving saves.
func BenchmarkBlockPRFPair(b *testing.B) {
	var k, k1 Key
	k[0] = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		F2((*[KeySize]byte)(&k), (*[KeySize]byte)(&k1), &k, 'g', 0, &k, 'g', 1)
	}
}
