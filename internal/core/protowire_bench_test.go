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
	r := &Response{Width: IDSize, Ends: make([]int, groups)}
	for g := range r.Ends {
		for range cuts[g+1] - cuts[g] {
			r.Data = binary.BigEndian.AppendUint64(r.Data, uint64(rnd.Intn(space)))
		}
		r.Ends[g] = len(r.Data) / IDSize
	}
	return r
}

// BenchmarkResponseCodec encodes and decodes one shard response (see
// shardResponse); frame_B is the encoded frame's length. decode also
// reads every id group by group, as tokenPlan.demux does, so it times
// what the owner pays for a response before the demux's own arrays.
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
		var sum ID
		for range b.N {
			resp, err := UnmarshalResponse(blob)
			if err != nil {
				b.Fatal(err)
			}
			for g := range resp.Ends {
				lo, hi := resp.group(g)
				for d := resp.Data[lo*IDSize : hi*IDSize]; len(d) > 0; d = d[IDSize:] {
					sum += binary.BigEndian.Uint64(d)
				}
			}
		}
		if sum == 0 {
			b.Fatal("no ids read")
		}
		b.ReportMetric(float64(len(blob)), "frame_B")
	})
}
