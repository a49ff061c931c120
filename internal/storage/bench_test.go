package storage

import (
	mrand "math/rand"
	"testing"
)

// benchRecords builds n uniform 16-byte-label records — the key
// distribution of the SSE dictionaries, which is what the Get path is
// optimized for. They seal, as the dictionaries do, as segment
// version 3.
func benchRecords(n int) ([][]byte, [][]byte) {
	rnd := mrand.New(mrand.NewSource(42))
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 16)
		rnd.Read(keys[i])
		vals[i] = make([]byte, 8)
		rnd.Read(vals[i])
	}
	return keys, vals
}

func benchBackend(b *testing.B, e Engine, n int) ([][]byte, Backend) {
	keys, vals := benchRecords(n)
	bld := e.NewBuilder(16, n)
	for i := range keys {
		if err := bld.Put(keys[i], vals[i]); err != nil {
			b.Fatal(err)
		}
	}
	x, err := bld.Seal()
	if err != nil {
		b.Fatal(err)
	}
	return keys, x
}

// BenchmarkGet probes a seeded random permutation of the records, from
// keys held in one contiguous array, and reads each value it gets: the
// access pattern of a search, whose labels are pseudorandom, so a probe
// pays the miss on its record's line rather than finding the previous
// record's neighbour in cache. n = 170,000 is one batch_cluster shard.
func BenchmarkGet(b *testing.B) {
	for _, e := range Engines() {
		for _, n := range []int{1000, 100000, 170000} {
			keys, x := benchBackend(b, e, n)
			probes := make([]byte, 0, n*16)
			for _, i := range mrand.New(mrand.NewSource(7)).Perm(n) {
				probes = append(probes, keys[i]...)
			}
			b.Run(e.Name()+"/n="+itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				var sum byte
				for i := 0; i < b.N; i++ {
					j := i % n
					v, ok := x.Get(probes[j*16 : j*16+16])
					if !ok {
						b.Fatal("miss")
					}
					sum += v[0] ^ v[len(v)-1]
				}
				getSink = sum
			})
		}
	}
}

// BenchmarkGetMany is BenchmarkGet's probes, from the same contiguous
// array, sixteen keys per GetMany call: the width of a search's lockstep
// lanes. ns/op is per call, so ns/key is a sixteenth of it.
func BenchmarkGetMany(b *testing.B) {
	const perCall = 16
	for _, e := range Engines() {
		for _, n := range []int{1000, 100000, 170000} {
			keys, x := benchBackend(b, e, n)
			flat := make([]byte, 0, n*16)
			for _, i := range mrand.New(mrand.NewSource(7)).Perm(n) {
				flat = append(flat, keys[i]...)
			}
			probes := make([][]byte, n)
			for j := range probes {
				probes[j] = flat[j*16 : j*16+16]
			}
			vals := make([][]byte, perCall)
			b.Run(e.Name()+"/n="+itoa(n), func(b *testing.B) {
				b.ReportAllocs()
				var sum byte
				for i := 0; i < b.N; i++ {
					j := i * perCall % (n - perCall + 1)
					x.GetMany(probes[j:j+perCall], vals)
					for _, v := range vals {
						if v == nil {
							b.Fatal("miss")
						}
						sum += v[0] ^ v[len(v)-1]
					}
				}
				getSink = sum
			})
		}
	}
}

// getSink keeps the benchmarks' value reads from being optimized away.
var getSink byte

func BenchmarkBuild(b *testing.B) {
	for _, e := range Engines() {
		keys, vals := benchRecords(100000)
		b.Run(e.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bld := e.NewBuilder(16, len(keys))
				for j := range keys {
					if err := bld.Put(keys[j], vals[j]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := bld.Seal(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
