package transport

import (
	"context"
	"fmt"
	"time"

	"rsse/internal/core"
)

// streamChunkTokens is how many trapdoors the server searches (and
// serializes) per streamed chunk. Within a chunk the index's batch
// concurrency still applies; across chunks the stream is sequential,
// which is what bounds the frame size and lets early chunks leave the
// wire while late ones are still searching.
const streamChunkTokens = 16

// streamBatchThreshold is the batch size at which the client switches
// from the single-frame batch-query op to the streamed op. Below it a
// stream's extra frames cost more than they save; above it the owner
// pipelines decryption against the server's remaining search work.
const streamBatchThreshold = 32

// handleBatchStream executes one batch-stream request, handing each
// finished chunk to emit as (status, payload): statusPartial for every
// chunk but the last, statusOK for the last, statusErr (with the
// message as payload) on failure at any point. emit runs on the
// calling goroutine; the dispatch integration decides how its frames
// reach the wire.
func handleBatchStream(reg *Registry, req request, emit func(status byte, payload []byte)) {
	fail := func(err error) { emit(statusErr, []byte(err.Error())) }
	idx, ob, err := reg.lookupServing(req.name)
	if err != nil {
		fail(err)
		return
	}
	ts, err := core.UnmarshalTrapdoors(req.payload)
	if err != nil {
		fail(err)
		return
	}
	ob.batches.Inc()
	ob.queries.Add(uint64(len(ts)))
	for _, t := range ts {
		ob.tokens.Add(uint64(t.Tokens()))
		ob.tokenBytes.Add(uint64(t.Bytes()))
	}
	for start := 0; ; start += streamChunkTokens {
		end := min(start+streamChunkTokens, len(ts))
		resps, err := searchBatch(idx, ts[start:end])
		if err != nil {
			fail(err)
			return
		}
		for _, resp := range resps {
			ob.respItems.Add(uint64(resp.Items()))
		}
		payload, err := core.MarshalResponses(resps)
		if err != nil {
			fail(err)
			return
		}
		if end == len(ts) {
			emit(statusOK, payload)
			return
		}
		emit(statusPartial, payload)
	}
}

// streamTask runs one batch-stream request on a dispatch worker: every
// chunk goes through the connection's completion channel (and so its
// coalescing writer) as its own response frame. Only the final
// completion recycles the request body and closes the in-flight
// accounting — graceful shutdown therefore waits for whole streams,
// never leaving a peer with a headless partial sequence. A handler
// panic mid-stream is contained like any other (see recoverHandler) and
// still ends the stream with its terminal frame.
func (d *dispatcher) streamTask(t task) {
	oi := opIndex(t.req.op)
	start := time.Now()
	ended := false
	emit := func(status byte, payload []byte) {
		c := completion{id: t.req.id, status: status, payload: payload}
		if status != statusPartial { // terminal frame
			c.bp, c.counted = t.bp, t.counted
			ended = true
		}
		if status == statusErr {
			tm.errors[oi].Inc()
		}
		d.compl <- c
	}
	if err := d.handleStream(t.req, emit); err != nil && !ended {
		emit(statusErr, []byte(err.Error()))
	}
	dur := time.Since(start)
	tm.requests[oi].Inc()
	tm.latency[oi].Record(dur)
	logSlowQuery(d.log, d.slow, t.req, dur, nil)
}

// handleStream is handleBatchStream with a handler panic contained:
// its only error is errHandlerPanic.
func (d *dispatcher) handleStream(req request, emit func(status byte, payload []byte)) (err error) {
	defer d.recoverHandler(req, &err)
	handleBatchStream(d.reg, req, emit)
	return nil
}

// SearchBatchStream runs the batch through the streamed op regardless
// of its size; see SearchBatchStreamContext.
func (h *IndexHandle) SearchBatchStream(ts []*core.Trapdoor) ([]*core.Response, error) {
	return h.SearchBatchStreamContext(context.Background(), ts)
}

// SearchBatchStreamContext sends the whole trapdoor batch in one
// batch-stream frame and reassembles the chunked response stream. The
// result is exactly SearchBatchContext's — same responses, same order —
// but no response frame ever carries more than a sub-batch, and the
// first chunk arrives while the server is still searching the rest.
func (h *IndexHandle) SearchBatchStreamContext(ctx context.Context, ts []*core.Trapdoor) ([]*core.Response, error) {
	payload, err := core.MarshalTrapdoors(ts)
	if err != nil {
		return nil, err
	}
	// The server emits one frame per chunk; sizing the reply channel for
	// all of them keeps the connection's read loop from ever blocking on
	// this stream, no matter how slowly the caller drains.
	chunks := (len(ts)+streamChunkTokens-1)/streamChunkTokens + 1
	rs := make([]*core.Response, 0, len(ts))
	err = h.conn.streamContext(ctx, opBatchStream, h.name, payload, chunks, func(chunk []byte) error {
		part, err := core.UnmarshalResponses(chunk)
		if err != nil {
			return err
		}
		rs = append(rs, part...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(rs) != len(ts) {
		return nil, fmt.Errorf("transport: batch stream carried %d responses for %d trapdoors", len(rs), len(ts))
	}
	return rs, nil
}
