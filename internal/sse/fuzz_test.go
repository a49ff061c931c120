package sse

import (
	mrand "math/rand"
	"testing"

	"rsse/internal/prf"
	"rsse/internal/storage"
)

// FuzzUnmarshal hammers the index parser with mutated blobs: it must
// never panic, and anything it accepts must search and re-marshal
// cleanly.
func FuzzUnmarshal(f *testing.F) {
	for _, s := range []Scheme{Basic{}, Packed{BlockSize: 4}, TSet{BucketCapacity: 16, Expansion: 1.5}} {
		var stag Stag
		stag[0] = 7
		idx, err := s.Build([]Entry{EntryFromIDs(stag, []uint64{1, 2, 3})}, 8, mrand.New(mrand.NewSource(1)), nil, prf.SuiteSHA512)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := idx.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{tagBasic})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, eng := range storage.Engines() {
			idx, err := Unmarshal(data, eng)
			if err != nil {
				continue
			}
			var probe Stag
			probe[5] = 9
			if _, err := idx.Search(probe); err != nil {
				t.Fatalf("%s: accepted index fails to search: %v", eng.Name(), err)
			}
			if _, err := idx.MarshalBinary(); err != nil {
				t.Fatalf("%s: accepted index fails to re-marshal: %v", eng.Name(), err)
			}
		}
	})
}
