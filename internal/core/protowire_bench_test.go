package core

import (
	"encoding/binary"
	mrand "math/rand"
	"slices"
	"testing"
)

// shardResponse is a response shaped like one batch_cluster shard
// answer: 85 groups holding 604 8-byte ids below 20,000, each group in
// the arbitrary order a posting list comes back in.
func shardResponse() *Response {
	const groups, ids, space = 85, 604, 20000
	rnd := mrand.New(mrand.NewSource(49))
	cuts := make([]int, groups+1)
	cuts[groups] = ids
	for g := 1; g < groups; g++ {
		cuts[g] = rnd.Intn(ids + 1)
	}
	slices.Sort(cuts)
	r := &Response{Groups: make([][][]byte, groups)}
	for g := range r.Groups {
		for range cuts[g+1] - cuts[g] {
			r.Groups[g] = append(r.Groups[g], binary.BigEndian.AppendUint64(nil, uint64(rnd.Intn(space))))
		}
	}
	return r
}

// BenchmarkResponseCodec encodes and decodes one shard response (see
// shardResponse); frame_B is the encoded frame's length.
func BenchmarkResponseCodec(b *testing.B) {
	r := shardResponse()
	blob, err := r.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := r.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "frame_B")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := UnmarshalResponse(blob); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "frame_B")
	})
}
