package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"rsse/internal/dprf"
	"rsse/internal/sse"
)

// Wire formats for the protocol messages, used by the transport layer to
// run queries against a remote server. Both messages are length-safe:
// parsers validate every count against the remaining input.

// Round reports which protocol round the trapdoor belongs to (1 or 2;
// Logarithmic-SRC-i is the only two-round scheme).
func (t *Trapdoor) Round() int {
	if t.round == 0 {
		return 1
	}
	return t.round
}

// MarshalBinary serializes a trapdoor:
// round(1) kind(1: 0=stags, 1=ggm) count(4) tokens...
func (t *Trapdoor) MarshalBinary() ([]byte, error) {
	if t.wire != nil {
		return t.wire, nil
	}
	out := make([]byte, 0, 6+len(t.Stags)*sse.StagSize+len(t.GGM)*dprf.TokenSize)
	out = append(out, byte(t.Round()))
	if len(t.GGM) > 0 {
		out = append(out, 1)
		out = binary.BigEndian.AppendUint32(out, uint32(len(t.GGM)))
		for _, g := range t.GGM {
			m := g.Marshal()
			out = append(out, m[:]...)
		}
		return out, nil
	}
	out = append(out, 0)
	out = binary.BigEndian.AppendUint32(out, uint32(len(t.Stags)))
	for _, s := range t.Stags {
		out = append(out, s[:]...)
	}
	return out, nil
}

// UnmarshalTrapdoor parses a trapdoor serialized with MarshalBinary.
func UnmarshalTrapdoor(data []byte) (*Trapdoor, error) {
	if len(data) < 6 {
		return nil, fmt.Errorf("core: trapdoor too short (%d bytes)", len(data))
	}
	t := &Trapdoor{round: int(data[0])}
	if t.round != 1 && t.round != 2 {
		return nil, fmt.Errorf("core: bad trapdoor round %d", t.round)
	}
	kind := data[1]
	count := int(binary.BigEndian.Uint32(data[2:6]))
	body := data[6:]
	switch kind {
	case 0:
		if len(body) != count*sse.StagSize {
			return nil, fmt.Errorf("core: trapdoor stag payload truncated")
		}
		t.Stags = make([]sse.Stag, count)
		for i := 0; i < count; i++ {
			copy(t.Stags[i][:], body[i*sse.StagSize:])
		}
	case 1:
		if len(body) != count*dprf.TokenSize {
			return nil, fmt.Errorf("core: trapdoor GGM payload truncated")
		}
		t.GGM = make([]dprf.Token, count)
		for i := 0; i < count; i++ {
			var buf [dprf.TokenSize]byte
			copy(buf[:], body[i*dprf.TokenSize:])
			t.GGM[i] = dprf.TokenFromBytes(buf)
		}
	default:
		return nil, fmt.Errorf("core: unknown trapdoor token kind %d", kind)
	}
	return t, nil
}

// A search response carries one group of items per token, in token
// order, each group's items in the order the server's search returned
// them:
//
//	response := uvarint(groups) uvarint(width) uvarint(items) group*groups
//	group    := uvarint(count<<1 | packed) body
//
// width is the one length every item of the response has, or 0 when
// there are no items; items is their total count. The body of a group
// depends on width:
//
//	width 8:  the group's items are ids, sent as an id group (below)
//	width w:  item*count, w bytes each
//
// Only an 8-byte group may set packed. Every frame has one encoding:
// the decoder refuses a non-minimal varint, a width of 0 for items or a
// width for none, and a packed flag the encoder would not have set, so
// re-marshaling an accepted frame reproduces it byte for byte. The
// frame is never longer than the item-per-length-word layout it
// replaced, 4 + Σ(4 + Σ(4+len)).

// MarshalBinary serializes the response.
func (r *Response) MarshalBinary() ([]byte, error) { return r.AppendBinary(nil) }

// AppendBinary appends the response's encoding to dst, growing it at
// most once: the server encodes into a pooled buffer this way.
func (r *Response) AppendBinary(dst []byte) ([]byte, error) {
	items, width := r.Items(), r.Width
	if items == 0 {
		width = 0
	}
	if width <= 0 && items > 0 || len(r.Data) != items*width {
		return nil, fmt.Errorf("core: response of %d items holds %d bytes at width %d", items, len(r.Data), r.Width)
	}
	// The size with every id group raw bounds the encoding.
	out := slices.Grow(dst, 3*binary.MaxVarintLen64+len(r.Ends)*uvarintLen(uint64(items)<<1)+len(r.Data))
	out = binary.AppendUvarint(out, uint64(len(r.Ends)))
	out = binary.AppendUvarint(out, uint64(width))
	out = binary.AppendUvarint(out, uint64(items))
	lo := 0
	for _, hi := range r.Ends {
		if hi < lo {
			return nil, fmt.Errorf("core: response group ends at item %d, after %d", hi, lo)
		}
		g := r.Data[lo*width : hi*width]
		if width == IDSize {
			out = AppendIDGroup(out, hi-lo, func(i int) ID { return binary.BigEndian.Uint64(g[IDSize*i:]) })
		} else {
			out = binary.AppendUvarint(out, uint64(hi-lo)<<1)
			out = append(out, g...)
		}
		lo = hi
	}
	return out, nil
}

// UnmarshalResponse parses a response serialized with MarshalBinary into
// arrays of its own: the result does not alias data.
//
// Two passes: the first validates the whole frame and counts its items,
// the second decodes them into one array, Width bytes an item. Nothing
// is allocated before the whole frame has checked out, so the untrusted
// sender's counts size nothing the bytes do not back.
func UnmarshalResponse(data []byte) (*Response, error) {
	h, err := checkResponse(data)
	if err != nil {
		return nil, err
	}
	resp := &Response{Width: h.width, Ends: make([]int, h.groups)}
	if h.items > 0 {
		resp.Data = make([]byte, h.items*h.width)
	}
	rest, out, n := data[h.off:], resp.Data, 0
	for g := range resp.Ends {
		hdr, k := readUvarint(rest)
		rest = rest[k:]
		count := int(hdr >> 1)
		if hdr&1 == 1 {
			ids := out[:IDSize*count]
			var id ID
			for i := range count {
				z, k := readUvarint(rest)
				rest, id = rest[k:], id+unzigzag(z)
				binary.BigEndian.PutUint64(ids[IDSize*i:], id)
			}
		} else {
			rest = rest[copy(out, rest[:count*h.width]):]
		}
		out = out[count*h.width:]
		n += count
		resp.Ends[g] = n
	}
	return resp, nil
}

// responseShape is what checkResponse learns of a valid frame.
type responseShape struct {
	groups, width, items int
	off                  int // where the first group starts
}

var (
	errResponseTruncated = errors.New("core: response truncated")
	errResponseNoWidth   = errors.New("core: response declares items of width 0")
)

// checkResponse validates a response frame — every count against the
// bytes present, every encoding choice against the encoder's — without
// allocating.
func checkResponse(data []byte) (h responseShape, err error) {
	var hdr [3]uint64
	rest := data
	for i := range hdr {
		v, n := uvarint(rest)
		if n == 0 {
			return h, errResponseTruncated
		}
		hdr[i], rest = v, rest[n:]
	}
	// Every group and every item costs at least one byte, and an item of
	// any width but an id's its whole width.
	if hdr[0] > uint64(len(rest)) || hdr[1] != IDSize && hdr[1] > uint64(len(rest)) || hdr[2] > uint64(len(rest)) {
		return h, errResponseTruncated
	}
	h.groups, h.width, h.items = int(hdr[0]), int(hdr[1]), int(hdr[2])
	h.off = len(data) - len(rest)
	switch {
	case h.width > 0 && h.items == 0:
		return h, fmt.Errorf("core: response declares width %d for no items", h.width)
	case h.width == 0 && h.items > 0:
		return h, errResponseNoWidth
	}
	left := h.items
	for range h.groups {
		if h.width == IDSize {
			grp, next, err := ReadIDGroup(rest, left)
			if err != nil {
				return h, fmt.Errorf("core: response: %w", err)
			}
			rest, left = next, left-grp.n
			continue
		}
		hdr, n := uvarint(rest)
		if n == 0 {
			return h, errResponseTruncated
		}
		rest = rest[n:]
		if hdr&1 != 0 {
			return h, fmt.Errorf("core: response packs items of width %d", h.width)
		}
		if hdr>>1 > uint64(left) {
			return h, errResponseTruncated
		}
		count := int(hdr >> 1)
		if count > 0 && count > len(rest)/h.width {
			return h, errResponseTruncated
		}
		rest, left = rest[count*h.width:], left-count
	}
	if left != 0 {
		return h, fmt.Errorf("core: response declares %d items, its groups %d", h.items, h.items-left)
	}
	if len(rest) != 0 {
		return h, fmt.Errorf("core: %d trailing bytes in response", len(rest))
	}
	return h, nil
}

// An id group is how ids cross the wire, both the 8-byte ids of a search
// response's groups and the ids of a fetch-many request:
//
//	idgroup := uvarint(count<<1 | packed) body
//	packed:    uvarint(zigzag(id_i − id_{i−1}))*count   (id_{−1} = 0)
//	raw:       id(u64, big-endian)*count
//
// The ids go in the order the caller holds them: nothing is sorted, so
// the bytes are a function of the ids and their order alone. A group is
// packed exactly when its varints take fewer than 8 bytes per id, so ids
// that lie close together (a posting list over a small id space, a
// fetch chunk) cost a byte or two each, uniformly random 64-bit ids go
// raw, and no group is longer than its raw form.

// IDSize is the width of an id on the wire when it goes raw.
const IDSize = 8

// AppendIDGroup appends n ids as one id group; at(i) is the i-th.
func AppendIDGroup(dst []byte, n int, at func(int) ID) []byte {
	hdr := len(dst)
	dst = binary.AppendUvarint(dst, uint64(n)<<1|1)
	body := len(dst)
	var prev ID
	for i := range n {
		id := at(i)
		dst = binary.AppendUvarint(dst, zigzag(id-prev))
		prev = id
		if len(dst)-body >= IDSize*n {
			break
		}
	}
	if len(dst)-body < IDSize*n {
		return dst
	}
	// Packing is not shorter: clear the flag (bit 0 of the header's
	// first byte) and send the ids raw.
	dst[hdr] &^= 1
	dst = dst[:body]
	for i := range n {
		dst = binary.BigEndian.AppendUint64(dst, at(i))
	}
	return dst
}

// packedLen is the length of n ids' packed body, or IDSize·n, their raw
// length, if packing would not be shorter.
func packedLen(n int, at func(int) ID) int {
	size, limit := 0, IDSize*n
	var prev ID
	for i := range n {
		id := at(i)
		if size += uvarintLen(zigzag(id - prev)); size >= limit {
			return limit
		}
		prev = id
	}
	return size
}

// IDGroup is one id group that ReadIDGroup has validated: Len ids, which
// Next yields in order.
type IDGroup struct {
	body   []byte
	n      int
	packed bool
	prev   ID
}

// Len is the number of ids in the group.
func (g *IDGroup) Len() int { return g.n }

// Next returns the group's next id; call it Len times.
func (g *IDGroup) Next() ID {
	if !g.packed {
		id := binary.BigEndian.Uint64(g.body)
		g.body = g.body[IDSize:]
		return id
	}
	z, n := readUvarint(g.body)
	g.body = g.body[n:]
	g.prev += unzigzag(z)
	return g.prev
}

// ReadIDGroup validates the id group at the head of src, which may hold
// at most limit ids, and returns it with the bytes that follow it. It
// allocates nothing, so a caller that sizes an array by Len sizes it by
// bytes that are present. Only canonical groups pass: minimal varints,
// and packed exactly when AppendIDGroup would pack.
func ReadIDGroup(src []byte, limit int) (IDGroup, []byte, error) {
	hdr, n := uvarint(src)
	if n == 0 {
		return IDGroup{}, nil, errIDGroupTruncated
	}
	src = src[n:]
	if hdr>>1 > uint64(limit) {
		return IDGroup{}, nil, fmt.Errorf("core: id group of %d ids, at most %d allowed", hdr>>1, limit)
	}
	g := IDGroup{n: int(hdr >> 1), packed: hdr&1 == 1}
	if !g.packed {
		if g.n > len(src)/IDSize {
			return IDGroup{}, nil, errIDGroupTruncated
		}
		g.body = src[:IDSize*g.n]
		if packedLen(g.n, func(i int) ID { return binary.BigEndian.Uint64(g.body[IDSize*i:]) }) < IDSize*g.n {
			return IDGroup{}, nil, errIDGroupNotCanonical
		}
		return g, src[IDSize*g.n:], nil
	}
	// The body is g.n minimal varints, shorter than the raw ids: it ends
	// at its g.n-th byte below 0x80, within IDSize·g.n − 1 bytes.
	if g.n == 0 {
		return IDGroup{}, nil, errIDGroupNotCanonical
	}
	body := src[:min(len(src), IDSize*g.n-1)]
	size, done := skipVarintWords(body, g.n)
	for ; done < g.n; done++ {
		end := size
		for end < len(body) && body[end] >= 0x80 {
			end++
		}
		switch {
		case end == len(body) && len(body) < len(src):
			return IDGroup{}, nil, errIDGroupNotCanonical
		case end == len(body):
			return IDGroup{}, nil, errIDGroupTruncated
		case end > size && body[end] == 0, // a zero continuation
			end-size >= binary.MaxVarintLen64, // past 64 bits
			end-size == binary.MaxVarintLen64-1 && body[end] > 1:
			return IDGroup{}, nil, errIDGroupNotCanonical
		}
		size = end + 1
	}
	g.body = src[:size]
	return g, src[size:], nil
}

// skipVarintWords is ReadIDGroup's fast path: it steps through b eight
// bytes at a time over whole minimal varints, fewer than n of them, and
// returns where the varint it stopped in starts and how many it passed.
// It stops before any word that ends the group, holds a zero
// continuation byte, or ends a varint of nine or more continuation
// bytes, so the byte loop that goes on from there makes every decision
// that can refuse a group.
func skipVarintWords(b []byte, n int) (start, done int) {
	off, run, cont := 0, 0, uint64(0) // run: continuation bytes since the last varint ended
	for off+8 <= len(b) {
		w := binary.LittleEndian.Uint64(b[off:])
		ends := ^w & msb // the high bit of each byte that ends a varint
		zero := ^((w&low + low) | w) & msb
		if done+bits.OnesCount64(ends) >= n ||
			zero&(w&msb<<8|cont>>56) != 0 ||
			run+bits.TrailingZeros64(ends)/8 >= binary.MaxVarintLen64-1 {
			break
		}
		done += bits.OnesCount64(ends)
		if ends == 0 {
			run += 8
		} else {
			run = bits.LeadingZeros64(ends) / 8
		}
		cont = w & msb
		off += 8
	}
	return off - run, done
}

var (
	errIDGroupTruncated    = errors.New("core: id group truncated")
	errIDGroupNotCanonical = errors.New("core: id group not in its canonical encoding")
)

// uvarint decodes the minimal uvarint at the head of b, returning its
// value and length; the length is 0 if b does not start with one
// (truncated, past 64 bits, or ending in a zero continuation).
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// readUvarint decodes the uvarint at the head of b, which a reader has
// already validated: one loop, no bounds beyond the slice's own.
func readUvarint(b []byte) (uint64, int) {
	v := uint64(b[0])
	if v < 0x80 {
		return v, 1
	}
	v &= 0x7f
	for i := 1; ; i++ {
		c := b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
}

// msb and low mask the high bit and the low seven bits of each byte of a
// word.
const msb, low = 0x8080808080808080, 0x7f7f7f7f7f7f7f7f

// uvarintLen is the length of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a wrapping id delta to a uvarint-friendly value: small
// steps either way stay small.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }
