// Package transport runs the RSSE query protocol over a network
// connection, so the data owner and the untrusted server can live in
// different processes (or machines). The server side serves a Registry of
// named encrypted indexes; the client side hands out per-index handles
// that are each a core.Source — context-first MetaContext, SearchContext
// and FetchMany, the same three calls a local *core.Index answers — so
// the owner's query logic runs against any served index unchanged.
//
// The protocol is a request/response framing over any stream connection
// (TCP, unix sockets, net.Pipe in tests), multiplexed by request id so
// one connection carries many requests concurrently and responses return
// as they complete — a slow search does not block the connection's other
// requests, and one handle is safe for concurrent use:
//
//	frame    := len(u32, big-endian) body          (len counts the body)
//	request  := reqID(u32) op(u8) nameLen(u8) name payload
//	response := reqID(u32) status(u8) payload
//	ops:      meta(1), search(trapdoor wire, 2), names(4), update(6),
//	          dyn-flush(7), dyn-query(8), fetch-many(count‖ids, 10)
//	status:   ok(0) payload | err(1) message | overload(2) message
//
// Every request is answered by exactly one response frame. Ops 3 (the
// per-id fetch), 5 (the batch query) and 9 (the streamed batch) are
// retired and answered like any unknown op, with an err(1) frame.
//
// The overload status distinguishes "server refused this request" from
// "server gone": a draining server answers shed requests with status 2
// (surfaced to callers as ErrOverloaded) while the connection stays up,
// so clients can back off or fail over instead of treating the shed as
// a dead peer.
//
// Each protocol round is one search frame, a multi-range batch's
// included (see core.Client.QueryBatchContext): its deduplicated trapdoor is
// an ordinary trapdoor, so a batch costs one round trip per round
// instead of one per range, and the server cannot tell it from a single
// query by its op.
//
// The fetch-many op carries the ids of one fetch-round chunk and answers
// with their ciphertexts in one frame (see fetchmany.go): the owner-side
// false-positive filter of the SRC schemes costs a round trip per chunk
// instead of one per returned id. A single fetch is a one-id fetch-many.
// The server sees the same ids one-id fetches would have shown it, in
// the same order.
//
// For served read indexes, exactly the protocol messages of the paper
// cross the wire: trapdoors owner→server, opaque result groups and
// encrypted tuples server→owner. The transport adds no leakage beyond
// message lengths, timing, and the (public) name of the index each
// request addresses. The update ops (6-8) are different: they address a
// writable dynamic store the serving process hosts with its keys — an
// owner-side durable write gateway, not the paper's untrusted server —
// so updates and dyn-query results cross in plaintext (see update.go).
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rsse/internal/core"
)

// MaxFrame bounds a single frame; larger frames abort the connection.
// Responses carry whole result groups, so the bound is generous.
const MaxFrame = 1 << 28 // 256 MiB

// Request op codes and response status codes.
const (
	opMeta      byte = 1
	opSearch    byte = 2
	opNames     byte = 4
	opUpdate    byte = 6
	opDynFlush  byte = 7
	opDynQuery  byte = 8
	opFetchMany byte = 10

	statusOK       byte = 0
	statusErr      byte = 1
	statusOverload byte = 2
)

// ErrOverloaded is returned to a caller whose request the server shed
// (overload response, status 2): the server is alive but refusing new
// work — during a graceful-shutdown drain, for instance. Distinct from
// a connection error so clients can back off or fail over.
var ErrOverloaded = errors.New("transport: server overloaded, request shed")

// ErrConnDead marks every failure caused by the connection itself
// dying — a failed write, a lost read loop, a request failed by the
// demultiplexer's shutdown. It is distinct from server-reported
// errors (which mean the transport is fine) so retry logic can tell
// "redial and try again" from "the server rejected this": a dead conn
// is safely retryable for idempotent reads, a server error is not.
var ErrConnDead = errors.New("transport: connection dead")

// overloadMsg is the payload of a drain-shed overload response.
const overloadMsg = "server draining"

// requestHeader is the fixed prefix of a request body: id, op, name
// length.
const requestHeader = 4 + 1 + 1

// responseHeader is the fixed prefix of a response body: id, status.
const responseHeader = 4 + 1

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds limit")

// readFrame reads one frame body into a buffer of its own (see
// readFrameInto for how far the announced length is trusted).
func readFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// request is one parsed request frame.
type request struct {
	id      uint32
	op      byte
	name    string
	payload []byte
}

// parseRequest splits a request body.
func parseRequest(body []byte) (request, error) {
	if len(body) < requestHeader {
		return request{}, fmt.Errorf("transport: short request (%d bytes)", len(body))
	}
	nameLen := int(body[5])
	if len(body) < requestHeader+nameLen {
		return request{}, fmt.Errorf("transport: request truncates index name")
	}
	return request{
		id:      binary.BigEndian.Uint32(body[:4]),
		op:      body[4],
		name:    string(body[requestHeader : requestHeader+nameLen]),
		payload: body[requestHeader+nameLen:],
	}, nil
}

// handleRequest executes one request against the registry. The returned
// payload is the ok-response body; a non-nil error becomes an
// err-response, leaving the connection up. Per-index counters — request
// counts and the server-observed leakage families — are incremented
// here, where the request's name, tokens and result sizes are all in
// hand; the per-index children are resolved once at registration, so
// the accounting is atomic adds only.
func handleRequest(reg *Registry, req request) ([]byte, error) {
	if req.op >= opUpdate && req.op <= opDynQuery {
		// Update ops route to the writable-store namespace.
		return handleUpdateRequest(reg, req)
	}
	if req.op == opNames {
		names := reg.Names()
		out := binary.BigEndian.AppendUint32(nil, uint32(len(names)))
		for _, n := range names {
			out = append(out, byte(len(n)))
			out = append(out, n...)
		}
		return out, nil
	}
	idx, ob, err := reg.lookupServing(req.name)
	if err != nil {
		return nil, err
	}
	switch req.op {
	case opMeta:
		meta, err := idx.MetaContext(context.Background())
		if err != nil {
			return nil, err
		}
		out := make([]byte, 0, metaLen)
		out = append(out, byte(meta.Kind), meta.DomainBits, meta.PosBits)
		out = binary.BigEndian.AppendUint64(out, uint64(meta.N))
		return append(out, byte(meta.Suite)), nil
	case opSearch:
		t, err := core.UnmarshalTrapdoor(req.payload)
		if err != nil {
			return nil, err
		}
		ob.queries.Inc()
		ob.tokens.Add(uint64(t.Tokens()))
		ob.tokenBytes.Add(uint64(t.Bytes()))
		resp, err := idx.SearchContext(context.Background(), t)
		if err != nil {
			return nil, err
		}
		ob.respItems.Add(uint64(resp.Items()))
		return resp.MarshalBinary()
	case opFetchMany:
		return handleFetchMany(idx, ob, req.payload)
	default:
		return nil, fmt.Errorf("transport: unknown request type %d", req.op)
	}
}

// parseNames decodes an opNames response.
func parseNames(payload []byte) ([]string, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("transport: short names response")
	}
	count := int(binary.BigEndian.Uint32(payload))
	payload = payload[4:]
	// The server is untrusted: cap the allocation hint by the bytes
	// actually present (each name costs at least its length byte).
	out := make([]string, 0, min(count, len(payload)))
	for i := 0; i < count; i++ {
		if len(payload) < 1 {
			return nil, fmt.Errorf("transport: names response truncated")
		}
		n := int(payload[0])
		if len(payload) < 1+n {
			return nil, fmt.Errorf("transport: names response truncated")
		}
		out = append(out, string(payload[1:1+n]))
		payload = payload[1+n:]
	}
	return out, nil
}
