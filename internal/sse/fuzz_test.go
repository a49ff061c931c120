package sse

import (
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
)

// FuzzOpenSection hammers the section parser with mutated sections of
// every construction on every engine, including the zero-copy one whose
// backends alias the fuzzed bytes: it must never panic, and anything it
// accepts must search and re-marshal cleanly.
func FuzzOpenSection(f *testing.F) {
	for _, s := range []Scheme{Basic{}, Packed{BlockSize: 4}, TSet{BucketCapacity: 16, Expansion: 1.5}, TwoLevel{InlineCap: 2, BlockSize: 2}} {
		var stag Stag
		stag[0] = 7
		idx, err := s.Build([]Entry{idEntry(stag, []uint64{1, 2, 3})}, 8, mrand.New(mrand.NewSource(1)), nil, prf.SuiteSHA512)
		if err != nil {
			f.Fatal(err)
		}
		sec, err := MarshalSection(idx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sec)
	}
	f.Add([]byte{})
	f.Add([]byte{tagBasic})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := OpenSection(data, prf.SuiteSHA512)
		if err != nil {
			return
		}
		for _, probe := range []Stag{{0: 7}, {5: 9}} {
			_, _ = searchOne(idx, probe) // errors fine, panics not
		}
		if _, err := MarshalSection(idx); err != nil {
			t.Fatalf("accepted section fails to re-marshal: %v", err)
		}
	})
}
