package core

import (
	"bytes"
	"context"
	"encoding/binary"
	mrand "math/rand"
	"slices"
	"testing"

	"rsse/internal/cover"
)

// lengthWordLen is a response's length in the layout that gave every
// count and every item a 4-byte word: 4 + Σ(4 + Σ(4+len)).
func lengthWordLen(r *Response) int {
	n := 4
	for _, g := range r.Groups {
		n += 4
		for _, p := range g {
			n += 4 + len(p)
		}
	}
	return n
}

// randomResponse draws a response of up to 12 groups whose items item
// makes; a group is empty one time in five.
func randomResponse(rnd *mrand.Rand, item func(g, i int) []byte) *Response {
	r := &Response{Groups: make([][][]byte, rnd.Intn(13))}
	for g := range r.Groups {
		if rnd.Intn(5) == 0 {
			continue
		}
		for i := range 1 + rnd.Intn(40) {
			r.Groups[g] = append(r.Groups[g], item(g, i))
		}
	}
	return r
}

func idItem(id uint64) []byte { return binary.BigEndian.AppendUint64(nil, id) }

// groupsPacked reports, per group of an encoded all-id response, whether
// the encoder packed it.
func groupsPacked(t *testing.T, blob []byte) []bool {
	t.Helper()
	h, err := checkResponse(blob)
	if err != nil || h.width != IDSize {
		t.Fatalf("not an id response: width %d, %v", h.width, err)
	}
	var packed []bool
	rest := blob[h.off:]
	for range h.groups {
		var g IDGroup
		g, rest, _ = ReadIDGroup(rest, h.items)
		packed = append(packed, g.packed)
	}
	return packed
}

// TestResponseCodecProperty: over random responses of every shape the
// schemes send and some they do not, the frame decodes to the same
// groups and items, re-encodes to the same bytes, gives every item and
// group cap == len, and is never longer than the length-word layout.
// Ids close together pack; uniformly random 64-bit ids go raw.
func TestResponseCodecProperty(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(49))
	shapes := []struct {
		name string
		item func(g, i int) []byte
		// packed, when set, is whether every non-empty group must pack.
		packed *bool
	}{
		{"sequential ids", func(g, i int) []byte { return idItem(uint64(1000*g + i)) }, ptr(true)},
		{"ids below 20000, any order", func(int, int) []byte { return idItem(uint64(rnd.Intn(20000))) }, ptr(true)},
		{"descending ids", func(g, i int) []byte { return idItem(uint64(1<<40 - 3*i)) }, ptr(true)},
		{"random 64-bit ids", func(int, int) []byte { return idItem(rnd.Uint64()) }, ptr(false)},
		{"SRC-i pairs", func(int, int) []byte {
			p := make([]byte, 40)
			rnd.Read(p)
			return p
		}, nil},
		{"mixed widths", func(int, int) []byte { return make([]byte, rnd.Intn(50)) }, nil},
		{"empty items", func(int, int) []byte { return []byte{} }, nil},
		{"ids and one long item", func(g, i int) []byte {
			if g == 0 && i == 0 {
				return make([]byte, 9)
			}
			return idItem(uint64(i))
		}, nil},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for range 200 {
				r := randomResponse(rnd, sh.item)
				blob, err := r.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if old := lengthWordLen(r); len(blob) > old {
					t.Fatalf("%d-byte frame, %d in the length-word layout", len(blob), old)
				}
				back, err := UnmarshalResponse(blob)
				if err != nil {
					t.Fatalf("own frame refused: %v\n% x", err, blob)
				}
				if len(back.Groups) != len(r.Groups) {
					t.Fatalf("%d groups back, %d sent", len(back.Groups), len(r.Groups))
				}
				for g := range r.Groups {
					if len(back.Groups[g]) != len(r.Groups[g]) || cap(back.Groups[g]) != len(back.Groups[g]) {
						t.Fatalf("group %d: len %d cap %d back, %d sent", g, len(back.Groups[g]), cap(back.Groups[g]), len(r.Groups[g]))
					}
					for i, p := range r.Groups[g] {
						q := back.Groups[g][i]
						if !bytes.Equal(p, q) || cap(q) != len(q) {
							t.Fatalf("group %d item %d: % x (cap %d) back, % x sent", g, i, q, cap(q), p)
						}
					}
				}
				again, err := back.MarshalBinary()
				if err != nil || !bytes.Equal(again, blob) {
					t.Fatalf("re-encoding differs: %v", err)
				}
				if appended, _ := r.AppendBinary([]byte("prefix")); !bytes.Equal(appended, append([]byte("prefix"), blob...)) {
					t.Fatal("AppendBinary differs from MarshalBinary")
				}
				if sh.packed == nil || r.Items() == 0 {
					continue
				}
				for g, packed := range groupsPacked(t, blob) {
					if len(r.Groups[g]) > 0 && packed != *sh.packed {
						t.Fatalf("group %d of %d ids: packed %v, want %v", g, len(r.Groups[g]), packed, *sh.packed)
					}
				}
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

// TestIDGroupCanonical: ReadIDGroup takes back exactly what
// AppendIDGroup writes, and refuses every other spelling of the same ids
// — a raw group that would pack, a packed one that would not, a
// non-minimal varint — and counts the bytes cannot back.
func TestIDGroupCanonical(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(7))
	for _, ids := range [][]ID{
		nil,
		{0},
		{5, 3, 9, 1 << 20},
		{1 << 63, 0, 1<<64 - 1},
		{rnd.Uint64(), rnd.Uint64()},
	} {
		blob := AppendIDGroup([]byte("x"), len(ids), func(i int) ID { return ids[i] })[1:]
		g, rest, err := ReadIDGroup(append(blob, 0xEE), len(ids))
		if err != nil || len(rest) != 1 || g.Len() != len(ids) {
			t.Fatalf("%v: %d ids, rest %x, %v", ids, g.Len(), rest, err)
		}
		for i := range ids {
			if got := g.Next(); got != ids[i] {
				t.Fatalf("%v: id %d decoded as %d", ids, i, got)
			}
		}
		if len(ids) > 0 {
			if _, _, err := ReadIDGroup(blob, len(ids)-1); err == nil {
				t.Errorf("%v: accepted past a limit of %d ids", ids, len(ids)-1)
			}
			if _, _, err := ReadIDGroup(blob[:len(blob)-1], len(ids)); err == nil {
				t.Errorf("%v: a truncated group was accepted", ids)
			}
		}
	}
	raw := func(ids ...ID) []byte {
		b := binary.AppendUvarint(nil, uint64(len(ids))<<1)
		for _, id := range ids {
			b = binary.BigEndian.AppendUint64(b, id)
		}
		return b
	}
	for name, b := range map[string][]byte{
		"raw ids that pack":         raw(1, 2, 3),
		"packed ids that do not":    append([]byte{1<<1 | 1}, binary.AppendUvarint(nil, zigzag(1<<62))...),
		"packed, no ids":            {1},
		"non-minimal varint":        {1<<1 | 1, 0x82, 0x00},
		"non-minimal header":        {0x80, 0x00},
		"varint past 64 bits":       {1<<1 | 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"packed body runs past":     {3<<1 | 1, 1, 1},
		"raw body runs past":        raw(1 << 62)[:5],
		"packed past 8 bytes an id": append([]byte{2<<1 | 1}, bytes.Repeat([]byte{0x80}, 15)...),
	} {
		if _, _, err := ReadIDGroup(b, 1<<20); err == nil {
			t.Errorf("%s: % x accepted", name, b)
		}
	}
}

// TestReadIDGroupMatchesReference: on random packed groups — varints of
// every length up to eleven bytes, zero continuations, values past 64
// bits, bodies cut short or run long — ReadIDGroup accepts exactly the
// groups a reference reader accepts, which decodes each varint with
// binary.Uvarint and requires it to re-encode to its own bytes, and
// returns the same rest.
func TestReadIDGroupMatchesReference(t *testing.T) {
	reference := func(src []byte, n int) (rest int, ok bool) {
		off := 0
		for range n {
			v, k := binary.Uvarint(src[off:])
			if k <= 0 || !bytes.Equal(binary.AppendUvarint(nil, v), src[off:off+k]) {
				return 0, false
			}
			off += k
		}
		return len(src) - off, n > 0 && off < IDSize*n
	}
	rnd := mrand.New(mrand.NewSource(11))
	for range 50000 {
		n := 1 + rnd.Intn(24)
		var body []byte
		for range n + rnd.Intn(3) - 1 {
			l := 1 + rnd.Intn(3)
			if rnd.Intn(8) == 0 {
				l = 1 + rnd.Intn(11)
			}
			for j := range l {
				c := byte(rnd.Intn(256))
				if j < l-1 {
					c |= 0x80
				} else if c &= 0x7f; rnd.Intn(16) == 0 {
					c = 0
				}
				body = append(body, c)
			}
		}
		if rnd.Intn(4) == 0 {
			body = body[:rnd.Intn(len(body)+1)]
		}
		src := append(binary.AppendUvarint(nil, uint64(n)<<1|1), body...)
		g, rest, err := ReadIDGroup(src, n)
		wantRest, ok := reference(body, n)
		if (err == nil) != ok || ok && len(rest) != wantRest {
			t.Fatalf("n %d, body % x: err %v, rest %d; reference accepts %v, rest %d", n, body, err, len(rest), ok, wantRest)
		}
		if ok && g.Len() != n {
			t.Fatalf("n %d, body % x: %d ids", n, body, g.Len())
		}
	}
}

// TestSeededBuildRepeatsIDOrder: a seeded client lays every posting list
// out the same way each time it builds, so a search answers the same ids
// in the same order. Responses are delta-coded in that order, so this is
// what keeps a seeded run's wire bytes the same from run to run; the
// build used to feed its posting lists to the shuffle in map order.
func TestSeededBuildRepeatsIDOrder(t *testing.T) {
	for _, kind := range []Kind{LogarithmicBRC, LogarithmicURC, LogarithmicSRC, LogarithmicSRCi, Quadratic} {
		bits := uint8(10)
		if kind == Quadratic {
			bits = 6
		}
		tuples := uniformTuples(400, bits, 32)
		var raws [2][]ID
		for i := range raws {
			c, err := NewClient(kind, cover.Domain{Bits: bits}, testOptions(31))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := c.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.QueryBatchContext(context.Background(), idx, []Range{{Lo: 10, Hi: 1 << (bits - 1)}})
			if err != nil {
				t.Fatal(err)
			}
			raws[i] = res.Results[0].Raw
		}
		if !slices.Equal(raws[0], raws[1]) {
			t.Errorf("%v: two seeded builds answer %v... and %v...", kind, raws[0][:8], raws[1][:8])
		}
	}
}
