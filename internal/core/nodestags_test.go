package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
)

// TestNodeStagsMatchKeywordPath pins the one stag function under every
// suite, over binary-tree (BRC, URC) and TDAG nodes alike: the query's
// node path (the stagger's node) and build's keyword path (idEntries)
// give the same stag for a node, and that stag is HMAC-SHA-512(k, label)
// truncated to 32 bytes under suites 0 and 1 — the bytes every index of
// those suites holds — and SHA-256(k ‖ level ‖ BE64(start)) under suite
// 2. Quadratic's range keyword, which takes no suite, is HMAC-SHA-512.
func TestNodeStagsMatchKeywordPath(t *testing.T) {
	var seed [prf.KeySize]byte
	seed[3] = 77
	key, err := prf.KeyFromBytes(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	dom := cover.Domain{Bits: 12}

	var nodes []cover.Node
	for _, q := range []struct{ lo, hi uint64 }{{0, 0}, {5, 1000}, {17, 17}, {100, 4095}} {
		for _, tech := range []cover.Technique{cover.BRCTechnique, cover.URCTechnique} {
			c, err := cover.Cover(dom, q.lo, q.hi, tech)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, c...)
		}
		n, err := cover.NewTDAG(dom).SRC(q.lo, q.hi)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	hmacSHA512 := func(msg []byte) sse.Stag {
		m := hmac.New(sha512.New, key[:])
		m.Write(msg)
		return sse.Stag(m.Sum(nil)[:sse.StagSize])
	}
	runs := make([]cover.Run, len(nodes))
	ids := make([]byte, 8*len(nodes))
	for i, n := range nodes {
		runs[i] = cover.Run{Node: n, Lo: i, Hi: i + 1}
		binary.BigEndian.PutUint64(ids[8*i:], ID(i))
	}

	for _, suite := range allSuites {
		got := make([]sse.Stag, len(nodes))
		s := newStagger(suite, key)
		for i, n := range nodes {
			got[i] = s.node(n)
		}
		s.release()
		for i, n := range nodes {
			label := n.Label()
			want := hmacSHA512(label[:])
			if suite.UsesF() {
				want = sse.Stag(sha256.Sum256(append(key[:], label[:]...)))
			}
			if got[i] != want {
				t.Fatalf("suite %v, node %v: the query stag diverges from the suite's keyword PRF", suite, n)
			}
		}

		c, err := NewClient(LogarithmicURC, dom, testOptions(31))
		if err != nil {
			t.Fatal(err)
		}
		entries := withBuildSuite(c, suite).idEntries(runs, ids, key)
		if len(entries) != len(runs) {
			t.Fatalf("suite %v: %d entries for %d keywords", suite, len(entries), len(runs))
		}
		for _, e := range entries {
			if i := binary.BigEndian.Uint64(e.Data); len(e.Data) != 8 || e.Stag != got[i] {
				t.Fatalf("suite %v, node %v: build's stag differs from the query's", suite, nodes[i])
			}
		}

	}

	h := prf.GetHasher(key)
	defer prf.PutHasher(h)
	for _, q := range []Range{{0, 0}, {3, 17}, {0, 4095}} {
		var kw [16]byte
		binary.BigEndian.PutUint64(kw[:8], q.Lo)
		binary.BigEndian.PutUint64(kw[8:], q.Hi)
		if rangeStag(h, q) != hmacSHA512(kw[:]) {
			t.Fatalf("Quadratic stag of %v is not HMAC-SHA-512 of its keyword", q)
		}
	}
}
