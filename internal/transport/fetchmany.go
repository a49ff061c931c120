package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"rsse/internal/core"
)

// The fetch-many op: one frame carries the ids of a whole fetch-round
// chunk and one frame answers with their ciphertexts, so the owner-side
// false-positive filter costs a round trip per chunk instead of one per
// returned id.
//
//	request  := idgroup(ids)                       (see core.AppendIDGroup)
//	response := count(u32) ( len(u32) ciphertext )*count
//
// The request's ids go as one id group, in request order: zigzag-delta
// varints when those are shorter than 8 bytes an id, raw otherwise — the
// codec of a search response's id groups. A zero len marks an id the
// index does not hold (a stored ciphertext is never empty: it is an IV
// plus at least one cipher block). Both peers are untrusted input to
// each other: the server bounds the count by maxFetchMany and checks it
// against the payload length before touching the store; the client
// checks the response count against its request and every length
// against the bytes actually present.

// maxFetchMany caps the ids of one fetch-many frame. The owner sends
// core's fetch-round chunks (far below it); the cap only bounds what a
// misbehaving peer can make the server do per request.
const maxFetchMany = 4096

// appendFetchManyRequest encodes the request payload for ids.
func appendFetchManyRequest(dst []byte, ids []core.ID) []byte {
	return core.AppendIDGroup(dst, len(ids), func(i int) core.ID { return ids[i] })
}

// parseFetchManyRequest validates and decodes a request payload. Nothing
// is allocated before the announced count has passed both checks.
func parseFetchManyRequest(payload []byte) ([]core.ID, error) {
	g, rest, err := core.ReadIDGroup(payload, maxFetchMany)
	if err != nil {
		return nil, fmt.Errorf("transport: fetch-many request: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: fetch-many request has %d trailing bytes", len(rest))
	}
	ids := make([]core.ID, g.Len())
	for i := range ids {
		ids[i] = g.Next()
	}
	return ids, nil
}

// fetchManyCount reads a request's announced id count for logging; 0 if
// the payload does not start with one.
func fetchManyCount(payload []byte) int {
	hdr, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0
	}
	return int(hdr >> 1)
}

// handleFetchMany answers one fetch-many request against idx. The two
// per-index counters advance by the number of ids, exactly as that many
// single fetches would have moved them.
func handleFetchMany(idx core.Source, ob *indexObs, payload, dst []byte) ([]byte, error) {
	ids, err := parseFetchManyRequest(payload)
	if err != nil {
		return nil, err
	}
	ob.fetches.Add(uint64(len(ids)))
	ob.rawIDs.Add(uint64(len(ids)))
	cts, err := idx.FetchMany(context.Background(), ids)
	if err != nil {
		return nil, err
	}
	if len(cts) != len(ids) {
		return nil, fmt.Errorf("transport: index returned %d ciphertexts for %d ids", len(cts), len(ids))
	}
	size := 4 + 4*len(cts)
	for _, ct := range cts {
		size += len(ct)
	}
	out := binary.BigEndian.AppendUint32(slices.Grow(dst, size), uint32(len(cts)))
	for _, ct := range cts {
		out = binary.BigEndian.AppendUint32(out, uint32(len(ct)))
		out = append(out, ct...)
	}
	return out, nil
}

// parseFetchManyResponse decodes a response to a request of want ids.
// The returned ciphertexts alias payload (client-side response bodies
// are never pooled); a nil entry is an unknown id.
func parseFetchManyResponse(payload []byte, want int) ([][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("transport: short fetch-many response (%d bytes)", len(payload))
	}
	if count := binary.BigEndian.Uint32(payload); uint64(count) != uint64(want) {
		return nil, fmt.Errorf("transport: fetch-many response carries %d ciphertexts for %d ids", count, want)
	}
	payload = payload[4:]
	// Each entry costs at least its length word, so a count the bytes
	// cannot back is rejected before anything is allocated for it.
	if want > len(payload)/4 {
		return nil, fmt.Errorf("transport: fetch-many response truncated")
	}
	out := make([][]byte, want)
	for i := range out {
		if len(payload) < 4 {
			return nil, fmt.Errorf("transport: fetch-many response truncated")
		}
		n := binary.BigEndian.Uint32(payload)
		payload = payload[4:]
		if uint64(n) > uint64(len(payload)) {
			return nil, fmt.Errorf("transport: fetch-many response truncated")
		}
		if n > 0 {
			out[i] = payload[:n:n]
		}
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("transport: fetch-many response has %d trailing bytes", len(payload))
	}
	return out, nil
}

// FetchMany implements core.Source: all ids cross in one frame and
// their ciphertexts return in one frame.
func (h *IndexHandle) FetchMany(ctx context.Context, ids []core.ID) ([][]byte, error) {
	if len(ids) > maxFetchMany {
		return nil, fmt.Errorf("transport: fetch-many of %d ids exceeds the limit of %d", len(ids), maxFetchMany)
	}
	resp, err := h.conn.roundTripContext(ctx, opFetchMany, h.name,
		appendFetchManyRequest(make([]byte, 0, binary.MaxVarintLen64+core.IDSize*len(ids)), ids))
	if err != nil {
		return nil, err
	}
	return parseFetchManyResponse(resp, len(ids))
}

// FetchContext is a single fetch: a one-id FetchMany, whose nil entry
// is an id the server does not hold.
//
// Deprecated: call FetchMany.
func (h *IndexHandle) FetchContext(ctx context.Context, id core.ID) ([]byte, bool, error) {
	cts, err := h.FetchMany(ctx, []core.ID{id})
	if err != nil {
		return nil, false, err
	}
	return cts[0], cts[0] != nil, nil
}

// FetchMany implements core.Source with retries — an idempotent
// read like Search. Every attempt decodes a fresh response, so a frame
// the connection died under is discarded whole.
func (h *ResilientHandle) FetchMany(ctx context.Context, ids []core.ID) (cts [][]byte, err error) {
	err = h.do(ctx, func(ctx context.Context, c *Conn) error {
		var err error
		cts, err = c.Index(h.name).FetchMany(ctx, ids)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cts, nil
}
