package core

import (
	"encoding/binary"
	"fmt"

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

// MarshalBinary serializes a response:
// groupCount(4) { itemCount(4) { itemLen(4) item }* }*
func (r *Response) MarshalBinary() ([]byte, error) {
	size := 4
	for _, g := range r.Groups {
		size += 4
		for _, p := range g {
			size += 4 + len(p)
		}
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Groups)))
	for _, g := range r.Groups {
		out = binary.BigEndian.AppendUint32(out, uint32(len(g)))
		for _, p := range g {
			out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
			out = append(out, p...)
		}
	}
	return out, nil
}

// UnmarshalResponse parses a response serialized with MarshalBinary.
// Items alias data, each with cap == len so that an append to one
// copies instead of writing over the next: data must not be modified
// or reused while the response is in use. The transport hands every
// response frame a buffer of its own, so nothing is copied per item.
//
// Two passes: the first validates the frame and counts its items, the
// second slices them into one array that the groups share, each group a
// subslice with no spare capacity (nil for an empty group). Nothing is
// allocated before the whole frame has checked out, so the untrusted
// sender's counts size nothing the bytes do not back.
func UnmarshalResponse(data []byte) (*Response, error) {
	groups, items, err := scanResponse(data)
	if err != nil {
		return nil, err
	}
	resp := &Response{Groups: make([][][]byte, groups)}
	all := make([][]byte, 0, items)
	r := wireReader{data: data, off: 4}
	for g := range resp.Groups {
		n, _ := r.uint32()
		lo := len(all)
		for range n {
			l, _ := r.uint32()
			item, _ := r.slice(int(l))
			all = append(all, item)
		}
		if len(all) > lo {
			resp.Groups[g] = all[lo:len(all):len(all)]
		}
	}
	return resp, nil
}

// scanResponse validates a response frame and counts its groups and
// items.
func scanResponse(data []byte) (groups, items int, err error) {
	r := wireReader{data: data}
	n, err := r.uint32()
	if err != nil {
		return 0, 0, fmt.Errorf("core: response truncated")
	}
	for g := uint32(0); g < n; g++ {
		m, err := r.uint32()
		if err != nil {
			return 0, 0, fmt.Errorf("core: response truncated")
		}
		for i := uint32(0); i < m; i++ {
			l, err := r.uint32()
			if err != nil {
				return 0, 0, fmt.Errorf("core: response truncated")
			}
			if _, err := r.slice(int(l)); err != nil {
				return 0, 0, fmt.Errorf("core: response truncated")
			}
		}
		items += int(m)
	}
	if r.off != len(r.data) {
		return 0, 0, fmt.Errorf("core: %d trailing bytes in response", len(r.data)-r.off)
	}
	return int(n), items, nil
}
