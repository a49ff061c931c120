package core

import (
	"context"
	"slices"
	"testing"

	"rsse/internal/cover"
)

// TestTrapdoorMemo proves a memoizing client answers exactly like a
// memoless one over a repeat-heavy stream, counts hits and misses, and
// keeps the memo bounded by its capacity.
func TestTrapdoorMemo(t *testing.T) {
	dom, err := cover.NewDomain(10)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	for _, kind := range []Kind{LogarithmicBRC, LogarithmicSRC, LogarithmicSRCi} {
		t.Run(kind.String(), func(t *testing.T) {
			tuples := make([]Tuple, 200)
			for i := range tuples {
				tuples[i] = Tuple{ID: ID(i), Value: uint64(i * 5 % 1024), Payload: []byte{byte(i)}}
			}
			memo, err := NewClient(kind, dom, Options{MasterKey: key, TrapdoorMemo: 8})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewClient(kind, dom, Options{MasterKey: key})
			if err != nil {
				t.Fatal(err)
			}
			x, err := memo.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			// 12 distinct ranges cycled 3 times through a capacity-8 memo:
			// repeats must replay, evictions must re-derive, and every
			// answer must match the memoless client bit for bit.
			ranges := make([]Range, 12)
			for i := range ranges {
				lo := uint64(i * 37 % 900)
				ranges[i] = Range{Lo: lo, Hi: lo + uint64(i%7)*9}
			}
			for rep := 0; rep < 3; rep++ {
				for _, q := range ranges {
					got, err := memo.QueryContext(context.Background(), x, q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := plain.QueryContext(context.Background(), x, q)
					if err != nil {
						t.Fatal(err)
					}
					// Group order follows the per-derivation stag permutation,
					// so the two clients may return matches in different
					// orders; the sets must be identical.
					gm := append([]ID(nil), got.Matches...)
					wm := append([]ID(nil), want.Matches...)
					slices.Sort(gm)
					slices.Sort(wm)
					if !slices.Equal(gm, wm) {
						t.Fatalf("%v: memo matches %v, plain %v", q, gm, wm)
					}
				}
			}
			hits, misses := memo.TrapdoorMemoStats()
			if hits == 0 {
				t.Fatal("no memo hits over a repeating stream")
			}
			if misses < 12 {
				t.Fatalf("only %d misses for 12 distinct ranges", misses)
			}
			if n := memo.tdMemo.len(); n > memo.tdMemo.cap {
				t.Fatalf("memo holds %d entries, capacity %d", n, memo.tdMemo.cap)
			}
			ph, pm := plain.TrapdoorMemoStats()
			if ph != 0 || pm != 0 {
				t.Fatalf("memoless client counted %d hits %d misses", ph, pm)
			}
		})
	}
}
