package dprf

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/race"
)

// suites is every PRF suite this build implements.
var suites = prf.Suites()

// eachSuite runs f as one subtest per PRF suite.
func eachSuite(t *testing.T, f func(t *testing.T, s prf.Suite)) {
	for _, s := range suites {
		t.Run(s.String(), func(t *testing.T) { f(t, s) })
	}
}

// refStepSuite is the GGM PRG straight from the spec, on fresh
// crypto/hmac instances — suite 0 one half of HMAC-SHA-512(seed,
// "rsse/ggm"), suite 1 HMAC-SHA-256(seed, "rsse/ggm/<bit>"), suites 2
// and 3 plain SHA-256(seed ‖ 'g' ‖ BE64(bit)) — the oracle the
// Expander's g must match bit for bit.
func refStepSuite(s prf.Suite, seed Value, bit uint64) Value {
	var v Value
	switch s {
	case prf.SuiteBlock, prf.SuiteBlockPad:
		return sha256.Sum256(binary.BigEndian.AppendUint64(append(seed[:len(seed):len(seed)], 'g'), bit))
	case prf.SuiteSHA256:
		mac := hmac.New(sha256.New, seed[:])
		fmt.Fprintf(mac, "rsse/ggm/%d", bit)
		copy(v[:], mac.Sum(nil))
		return v
	}
	mac := hmac.New(sha512.New, seed[:])
	mac.Write([]byte("rsse/ggm"))
	sum := mac.Sum(nil)
	if bit == 0 {
		copy(v[:], sum[:Size])
	} else {
		copy(v[:], sum[Size:2*Size])
	}
	return v
}

// refStep is refStepSuite for suite 0.
func refStep(seed Value, bit uint64) Value { return refStepSuite(prf.SuiteSHA512, seed, bit) }

func refWalk(seed Value, path uint64, depth uint8) Value {
	for i := int(depth) - 1; i >= 0; i-- {
		seed = refStep(seed, (path>>uint(i))&1)
	}
	return seed
}

func TestExpanderGMatchesHMAC(t *testing.T) {
	eachSuite(t, func(t *testing.T, s prf.Suite) {
		e := NewExpanderSuite(s)
		rnd := mrand.New(mrand.NewSource(2))
		var g0, g1 Value
		for trial := 0; trial < 100; trial++ {
			var seed Value
			rnd.Read(seed[:])
			e.g(&seed, &g0, &g1)
			if g0 != refStepSuite(s, seed, 0) || g1 != refStepSuite(s, seed, 1) {
				t.Fatal("manual HMAC disagrees with crypto/hmac")
			}
		}
	})
}

// TestBlockGKnownAnswers: suite 2's G on the all-zero seed is the two
// SHA-256 digests anyone can recompute with sha256sum over 32 zero
// bytes, 'g' and an 8-byte big-endian 0 or 1; and one level down the
// children's children follow the same rule.
func TestBlockGKnownAnswers(t *testing.T) {
	e := NewExpanderSuite(prf.SuiteBlock)
	var seed, g0, g1 Value
	e.g(&seed, &g0, &g1)
	if hex.EncodeToString(g0[:]) != "622cc536ba8bfd55006be84dc89077f6be7ad807c74c2d57c1af546a63336573" ||
		hex.EncodeToString(g1[:]) != "9c51502c541b953c4b248f98dc0b6084e40c211c8120b77d8c513e60108ef675" {
		t.Fatalf("G(0) = %x ‖ %x", g0, g1)
	}
	leaves := e.ExpandInto(nil, Token{Level: 2, Value: seed})
	for i, want := range []Value{
		refStepSuite(prf.SuiteBlock, g0, 0), refStepSuite(prf.SuiteBlock, g0, 1),
		refStepSuite(prf.SuiteBlock, g1, 0), refStepSuite(prf.SuiteBlock, g1, 1),
	} {
		if leaves[i] != want {
			t.Fatalf("leaf %d of the zero seed's level-2 subtree is not SHA-256(parent ‖ 'g' ‖ bit)", i)
		}
	}
}

// TestExpanderGAliasing: ExpandInto writes children over their parent's
// slot (2i == i at i=0), so g must tolerate its outputs aliasing seed.
func TestExpanderGAliasing(t *testing.T) {
	eachSuite(t, func(t *testing.T, s prf.Suite) {
		e := NewExpanderSuite(s)
		var seed Value
		seed[0] = 42
		want0, want1 := refStepSuite(s, seed, 0), refStepSuite(s, seed, 1)
		s0, s1 := seed, seed
		e.g(&s0, &s0, &s1)
		if s0 != want0 || s1 != want1 {
			t.Error("g wrong when g0 aliases seed")
		}
		s0, s1 = seed, seed
		e.g(&s1, &s0, &s1)
		if s0 != want0 || s1 != want1 {
			t.Error("g wrong when g1 aliases seed")
		}
	})
}

func TestExpandIntoMatchesRecursive(t *testing.T) {
	eachSuite(t, testExpandIntoMatchesRecursive)
}

func testExpandIntoMatchesRecursive(t *testing.T, s prf.Suite) {
	e := NewExpanderSuite(s)
	rnd := mrand.New(mrand.NewSource(3))
	for level := uint8(0); level <= 8; level++ {
		var seed Value
		rnd.Read(seed[:])
		tok := Token{Level: level, Value: seed}
		got := e.ExpandInto(nil, tok)
		// Recursive reference, leaves left to right.
		var want []Value
		var rec func(v Value, depth uint8)
		rec = func(v Value, depth uint8) {
			if depth == 0 {
				want = append(want, v)
				return
			}
			rec(refStepSuite(s, v, 0), depth-1)
			rec(refStepSuite(s, v, 1), depth-1)
		}
		rec(seed, level)
		if len(got) != len(want) {
			t.Fatalf("level %d: %d leaves, want %d", level, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("level %d: leaf %d out of order or wrong", level, i)
			}
		}
	}
}

func TestExpandIntoAppends(t *testing.T) {
	e := NewExpander()
	var seed Value
	seed[3] = 7
	prefix := []Value{{1}, {2}}
	out := e.ExpandInto(prefix, Token{Level: 2, Value: seed})
	if len(out) != 2+4 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0] != prefix[0] || out[1] != prefix[1] {
		t.Error("existing elements clobbered")
	}
	if out[2] != refWalk(seed, 0, 2) || out[5] != refWalk(seed, 3, 2) {
		t.Error("appended leaves wrong")
	}
}

// TestDelegateNodesMatchesNodeToken: the prefix-memoized delegation must
// produce byte-identical tokens to the one-node-at-a-time walk, across
// both cover techniques and many random ranges.
func TestDelegateNodesMatchesNodeToken(t *testing.T) {
	eachSuite(t, testDelegateNodesMatchesNodeToken)
}

func testDelegateNodesMatchesNodeToken(t *testing.T, s prf.Suite) {
	rnd := mrand.New(mrand.NewSource(4))
	e := NewExpanderSuite(s)
	for _, bitsN := range []uint8{4, 10, 16} {
		k := testKey(t, bitsN).WithSuite(s)
		d := cover.Domain{Bits: bitsN}
		m := uint64(1) << bitsN
		for _, tech := range []cover.Technique{cover.BRCTechnique, cover.URCTechnique} {
			for trial := 0; trial < 50; trial++ {
				lo := rnd.Uint64() % m
				hi := lo + rnd.Uint64()%(m-lo)
				nodes, err := cover.Cover(d, lo, hi, tech)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.DelegateNodes(nil, k, nodes)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(nodes) {
					t.Fatalf("%d tokens for %d nodes", len(got), len(nodes))
				}
				for i, n := range nodes {
					want, err := k.NodeToken(n)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("bits=%d tech=%v [%d,%d]: token %d (node %v) diverges from NodeToken",
							bitsN, tech, lo, hi, i, n)
					}
					// NodeToken itself against the spec: a root walk of
					// reference steps along the node's path bits.
					ref, depth := k.seed, bitsN-n.Level
					for b := int(depth) - 1; b >= 0; b-- {
						ref = refStepSuite(s, ref, (n.Start>>n.Level>>uint(b))&1)
					}
					if trial == 0 && want.Value != ref {
						t.Fatalf("bits=%d node %v: NodeToken diverges from the reference walk", bitsN, n)
					}
				}
			}
		}
	}
}

func TestDelegateNodesRejectsBadNode(t *testing.T) {
	k := testKey(t, 8)
	e := NewExpander()
	bad := []cover.Node{{Level: 1, Start: 1}} // not dyadic-aligned
	if _, err := e.DelegateNodes(nil, k, bad); err == nil {
		t.Error("misaligned node accepted")
	}
	if _, err := e.DelegateNodes(nil, k, []cover.Node{{Level: 9, Start: 0}}); err == nil {
		t.Error("over-deep node accepted")
	}
	if _, err := e.DelegateNodes(nil, k, []cover.Node{{Level: 0, Start: 256}}); err == nil {
		t.Error("out-of-domain node accepted")
	}
}

// TestExpanderAllocs pins the zero-allocation property of the GGM hot
// paths once scratch has grown to steady state.
func TestExpanderAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	eachSuite(t, testExpanderAllocs)
}

func testExpanderAllocs(t *testing.T, s prf.Suite) {
	e := NewExpanderSuite(s)
	k := testKey(t, 16).WithSuite(s)
	d := cover.Domain{Bits: 16}
	nodes, err := cover.Cover(d, 100, 9000, cover.BRCTechnique)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := k.NodeToken(cover.Node{Level: 6, Start: 64})
	if err != nil {
		t.Fatal(err)
	}
	leaves := make([]Value, 0, 64)
	tokens := make([]Token, 0, len(nodes))
	var seed, g1 Value
	checks := []struct {
		name string
		f    func()
	}{
		// Suite 2's step is one two-way prf.F2 call, written over its seed.
		{"Expander.g", func() { e.g(&seed, &seed, &g1) }},
		{"Expander.Eval", func() { e.Eval(k, 12345) }},
		{"Expander.ExpandInto", func() { leaves = e.ExpandInto(leaves[:0], tok) }},
		{"Expander.DelegateNodes", func() {
			var err error
			if tokens, err = e.DelegateNodes(tokens[:0], k, nodes); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range checks {
		c.f() // warm up scratch
		if n := testing.AllocsPerRun(100, c.f); n > 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}

func BenchmarkExpanderDelegate16(b *testing.B) {
	var seed [Size]byte
	k := KeyFromSeed(cover.Domain{Bits: 16}, seed)
	d := cover.Domain{Bits: 16}
	nodes, _ := cover.Cover(d, 1000, 50000, cover.BRCTechnique)
	e := NewExpander()
	var tokens []Token
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tokens, _ = e.DelegateNodes(tokens[:0], k, nodes)
	}
}

func BenchmarkExpanderExpandLevel10(b *testing.B) {
	for _, s := range suites {
		b.Run(s.String(), func(b *testing.B) {
			var seed Value
			tok := Token{Level: 10, Value: seed}
			e := NewExpanderSuite(s)
			var leaves []Value
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				leaves = e.ExpandInto(leaves[:0], tok)
			}
		})
	}
}

// TestExpanderRefusesKeyOfAnotherSuite: a key's tokens are only
// meaningful on its own suite's tree.
func TestExpanderRefusesKeyOfAnotherSuite(t *testing.T) {
	k := testKey(t, 8).WithSuite(prf.SuiteSHA256)
	e := NewExpander()
	if _, err := e.Eval(k, 1); err == nil {
		t.Error("Eval accepted a suite-1 key on a suite-0 expander")
	}
	if _, err := e.NodeToken(k, cover.Node{}); err == nil {
		t.Error("NodeToken accepted a suite-1 key on a suite-0 expander")
	}
	if _, err := e.DelegateNodes(nil, k, []cover.Node{{}}); err == nil {
		t.Error("DelegateNodes accepted a suite-1 key on a suite-0 expander")
	}
	a, err := k.Eval(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suites {
		if b, _ := k.WithSuite(s).Eval(5); (a == b) != (s == prf.SuiteSHA256) {
			t.Errorf("one seed evaluates identically under %v and %v", prf.SuiteSHA256, s)
		}
	}
}
