package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/storage"
)

// Fuzz targets for every parser that consumes server- or disk-originated
// bytes. Run with `go test -fuzz=FuzzX ./internal/core`; the seed corpus
// below runs on every ordinary `go test`.

func FuzzUnmarshalIndex(f *testing.F) {
	c, err := NewClient(LogarithmicSRCi, cover.Domain{Bits: 6}, testOptions(90))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(20, 6, 91))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the result must survive a
		// re-marshal cycle.
		x, err := UnmarshalIndex(data)
		if err != nil {
			return
		}
		if _, err := x.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal of accepted index failed: %v", err)
		}
	})
}

// FuzzOpenIndex drives the segment-container parser with corrupt input
// on every engine, including the zero-copy disk engine whose backends
// alias the fuzzed bytes directly. Any failure must be the typed
// ErrCorruptIndex — never a panic, and never an allocation proportional
// to a lying length field.
func FuzzOpenIndex(f *testing.F) {
	c, err := NewClient(LogarithmicSRCi, cover.Domain{Bits: 6}, testOptions(95))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(20, 6, 96))
	if err != nil {
		f.Fatal(err)
	}
	v2, err := idx.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	flipped := append([]byte(nil), v2...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{2})
	// The suite byte: a value no build implements, and the other
	// implemented ones (load, and find nothing under the wrong PRF).
	for _, suite := range []byte{7, 1, 2} {
		other := append([]byte(nil), v2...)
		other[12] = suite
		f.Add(other)
	}
	// The shape the header promises: SRC-i without its aux index, and
	// kind bytes outside Kinds().
	f.Add(withoutAux(f, v2))
	for _, kind := range []byte{7, 255} {
		other := append([]byte(nil), v2...)
		other[1] = kind
		f.Add(other)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, eng := range append([]storage.Engine{nil}, storage.Engines()...) {
			x, err := UnmarshalIndexWith(data, eng)
			if err != nil {
				if !errors.Is(err, ErrCorruptIndex) {
					t.Fatalf("untyped parse error: %v", err)
				}
				continue
			}
			// Accepted input must survive a re-marshal cycle and a probe
			// query without panicking.
			if _, err := x.MarshalBinary(); err != nil {
				t.Fatalf("re-marshal of accepted index failed: %v", err)
			}
			if x.Kind() == LogarithmicSRCi && x.Domain().Bits == 6 {
				qc, err := NewClient(LogarithmicSRCi, cover.Domain{Bits: 6}, testOptions(95))
				if err != nil {
					t.Fatal(err)
				}
				_, _ = qc.QueryContext(context.Background(), x, Range{1, 9}) // errors fine, panics not
			}
		}
	})
}

func FuzzUnmarshalTrapdoor(f *testing.F) {
	c, err := NewClient(ConstantURC, cover.Domain{Bits: 10}, testOptions(92))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(20, 10, 93))
	if err != nil {
		f.Fatal(err)
	}
	td, err := c.Trapdoor(Range{10, 300})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := td.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{1, 0, 0, 0, 0, 0})
	// One GGM token whose level byte is beyond any domain: 64 (1<<64
	// wraps to zero leaves) and 40 (a terabyte of leaves).
	for _, level := range []byte{64, 40} {
		f.Add(append([]byte{1, 1, 0, 0, 0, 1, level}, make([]byte, dprf.Size)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		td, err := UnmarshalTrapdoor(data)
		if err != nil {
			return
		}
		back, err := td.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted trapdoor failed: %v", err)
		}
		td2, err := UnmarshalTrapdoor(back)
		if err != nil {
			t.Fatalf("re-parse of re-marshal failed: %v", err)
		}
		if td2.Tokens() != td.Tokens() {
			t.Fatal("token count changed across roundtrip")
		}
		// Whatever parses is what a server executes: errors fine, panics
		// and token-sized allocations not.
		_, _ = idx.SearchContext(context.Background(), td)
	})
}

// hostileResponses are response bodies whose counts promise far more
// than they carry: 2^24-1 groups, 2^27 groups, one group of 2^27 items,
// 2^32-1 groups.
var hostileResponses = [][]byte{
	{0x00, 0xff, 0xff, 0xff},
	{0x08, 0x00, 0x00, 0x00},
	{0x00, 0x00, 0x00, 0x01, 0x08, 0x00, 0x00, 0x00},
	{0xff, 0xff, 0xff, 0xff},
}

// TestUnmarshalResponseHostileCounts: a response's group and item
// counts come from the server. Each hostile body is refused as truncated
// after allocating under 64 KiB — a 4-byte body used to buy an
// allocation sized by its count (384 MiB to 96 GiB).
func TestUnmarshalResponseHostileCounts(t *testing.T) {
	for _, body := range hostileResponses {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalResponse(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("% x: accepted", body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("% x: allocated %d bytes, want < 64 KiB", body, got)
		}
	}
}

func FuzzUnmarshalResponse(f *testing.F) {
	resp := &Response{Groups: [][][]byte{{[]byte("abc")}, {}, {[]byte("de"), []byte("f")}}}
	blob, err := resp.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{0, 0, 0, 0})
	for _, body := range hostileResponses {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalResponse(data)
		if err != nil {
			return
		}
		// Items are decoded in place: none may reach past its own bytes,
		// so an append to one cannot overwrite the next. Groups share one
		// array: none may reach past its own items either.
		for g, group := range r.Groups {
			if cap(group) != len(group) {
				t.Fatalf("group %d: cap %d, len %d", g, cap(group), len(group))
			}
			for i, item := range group {
				if cap(item) != len(item) {
					t.Fatalf("group %d item %d: cap %d, len %d", g, i, cap(item), len(item))
				}
			}
		}
		back, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted response failed: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("re-marshal differs from the accepted input:\n got % x\nwant % x", back, data)
		}
	})
}
