package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"rsse/internal/core"
)

// The update wire ops extend the query protocol with remote mutation of
// a writable (durable dynamic) store hosted by the serving process:
//
//	update     := reqID op(6) nameLen name kind(u8) id(u64) value(u64)
//	              newValue(u64) payload
//	dyn-flush  := reqID op(7) nameLen name
//	dyn-query  := reqID op(8) nameLen name lo(u64) hi(u64)
//
// An update request is acknowledged only after the store has accepted
// it — for a durable store, after the operation is in the write-ahead
// log (synced per the store's fsync policy). Writable targets live in
// their own registry namespace: ops 6-8 route to RegisterUpdatable
// entries, ops 1-5 to ordinary served indexes, so one name can serve a
// read index and a writable store side by side without ambiguity.
//
// NOTE the trust model differs from the query protocol: updates cross
// the wire in plaintext and dyn-query returns decrypted tuples, because
// the process hosting a writable store necessarily holds its keys — it
// is an owner-side component (a durable write gateway), not the
// untrusted server of the paper. See ARCHITECTURE.md.

// Update kinds on the wire, mirroring the WAL record kinds.
const (
	// UpdateInsert inserts a live tuple (ID, Value, Payload).
	UpdateInsert byte = 1
	// UpdateDelete logs a tombstone for ID under its current Value.
	UpdateDelete byte = 2
	// UpdateModify atomically moves ID from Value to NewValue with a new
	// Payload.
	UpdateModify byte = 3
)

// Update is one remote mutation request.
type Update struct {
	Kind     byte
	ID       core.ID
	Value    core.Value
	NewValue core.Value
	Payload  []byte
}

// Updatable is the server-side target of the update wire ops — a
// writable dynamic store the serving process hosts. Implementations
// must be safe for concurrent use: the server dispatches requests from
// every connection in parallel.
type Updatable interface {
	// ApplyUpdate buffers (and, when durable, logs) one update. A nil
	// return acknowledges the update per the store's durability policy.
	ApplyUpdate(u Update) error
	// FlushUpdates seals the pending batch into a fresh epoch.
	FlushUpdates() error
	// QueryTuples answers a range query with decrypted live tuples.
	QueryTuples(q core.Range) ([]core.Tuple, error)
}

// updateFixed is the fixed prefix of an update payload.
const updateFixed = 1 + 8 + 8 + 8

// marshalUpdate encodes an update request payload.
func marshalUpdate(u Update) []byte {
	out := make([]byte, 0, updateFixed+len(u.Payload))
	out = append(out, u.Kind)
	out = binary.BigEndian.AppendUint64(out, u.ID)
	out = binary.BigEndian.AppendUint64(out, u.Value)
	out = binary.BigEndian.AppendUint64(out, u.NewValue)
	return append(out, u.Payload...)
}

// unmarshalUpdate decodes an update request payload.
func unmarshalUpdate(b []byte) (Update, error) {
	if len(b) < updateFixed {
		return Update{}, fmt.Errorf("transport: short update payload (%d bytes)", len(b))
	}
	u := Update{
		Kind:     b[0],
		ID:       binary.BigEndian.Uint64(b[1:9]),
		Value:    binary.BigEndian.Uint64(b[9:17]),
		NewValue: binary.BigEndian.Uint64(b[17:25]),
	}
	if u.Kind < UpdateInsert || u.Kind > UpdateModify {
		return Update{}, fmt.Errorf("transport: unknown update kind %d", u.Kind)
	}
	if len(b) > updateFixed {
		u.Payload = append([]byte(nil), b[updateFixed:]...)
	}
	return u, nil
}

// marshalTuples encodes a dyn-query response: count, then per tuple
// id, value, and a length-prefixed payload.
func marshalTuples(ts []core.Tuple) []byte {
	n := 4
	for _, t := range ts {
		n += 8 + 8 + 4 + len(t.Payload)
	}
	out := make([]byte, 0, n)
	out = binary.BigEndian.AppendUint32(out, uint32(len(ts)))
	for _, t := range ts {
		out = binary.BigEndian.AppendUint64(out, t.ID)
		out = binary.BigEndian.AppendUint64(out, t.Value)
		out = binary.BigEndian.AppendUint32(out, uint32(len(t.Payload)))
		out = append(out, t.Payload...)
	}
	return out
}

// unmarshalTuples decodes a dyn-query response.
func unmarshalTuples(b []byte) ([]core.Tuple, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("transport: short tuples response")
	}
	count := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// The bound caps the allocation hint against a lying peer: every
	// tuple costs at least its 20 fixed bytes.
	out := make([]core.Tuple, 0, min(count, len(b)/20+1))
	for i := 0; i < count; i++ {
		if len(b) < 20 {
			return nil, fmt.Errorf("transport: tuples response truncated")
		}
		t := core.Tuple{
			ID:    binary.BigEndian.Uint64(b[:8]),
			Value: binary.BigEndian.Uint64(b[8:16]),
		}
		plen := int(binary.BigEndian.Uint32(b[16:20]))
		b = b[20:]
		if len(b) < plen {
			return nil, fmt.Errorf("transport: tuples response truncated")
		}
		if plen > 0 {
			t.Payload = append([]byte(nil), b[:plen]...)
		}
		b = b[plen:]
		out = append(out, t)
	}
	return out, nil
}

// handleUpdateRequest executes one update-namespace request.
func handleUpdateRequest(reg *Registry, req request) ([]byte, error) {
	target, err := reg.LookupUpdatable(req.name)
	if err != nil {
		return nil, err
	}
	switch req.op {
	case opUpdate:
		u, err := unmarshalUpdate(req.payload)
		if err != nil {
			return nil, err
		}
		// Server-observed update leakage: the store learns one update
		// happened (kind and timing), which is exactly what the forward-
		// private construction concedes per op.
		ixUpdates.With(req.name).Inc()
		return nil, target.ApplyUpdate(u)
	case opDynFlush:
		return nil, target.FlushUpdates()
	case opDynQuery:
		if len(req.payload) != 16 {
			return nil, fmt.Errorf("transport: dyn-query payload must be 16 bytes")
		}
		q := core.Range{
			Lo: binary.BigEndian.Uint64(req.payload[:8]),
			Hi: binary.BigEndian.Uint64(req.payload[8:16]),
		}
		tuples, err := target.QueryTuples(q)
		if err != nil {
			return nil, err
		}
		return marshalTuples(tuples), nil
	default:
		return nil, fmt.Errorf("transport: unknown update request type %d", req.op)
	}
}

// RegisterUpdatable serves a writable store under name in the update
// namespace (independent of the read-index namespace). Names are 1..255
// bytes and unique among updatables.
func (r *Registry) RegisterUpdatable(name string, u Updatable) error {
	if u == nil {
		return errors.New("transport: cannot register a nil updatable")
	}
	if len(name) == 0 || len(name) > maxNameLen {
		return fmt.Errorf("%w: %q", ErrBadIndexName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.w[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateIndex, name)
	}
	if r.w == nil {
		r.w = make(map[string]Updatable)
	}
	r.w[name] = u
	return nil
}

// LookupUpdatable resolves a writable store by name.
func (r *Registry) LookupUpdatable(name string) (Updatable, error) {
	r.mu.RLock()
	u, ok := r.w[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: no writable store %q", ErrUnknownIndex, name)
	}
	return u, nil
}

// UpdateHandle addresses one writable store over a shared Conn. All
// methods are safe for concurrent use; the server applies updates in
// arrival order per its own locking.
type UpdateHandle struct {
	conn *Conn
	name string
}

// Updatable returns a handle on the writable store served under name.
// Creating it performs no I/O; an unknown name surfaces on first use.
func (c *Conn) Updatable(name string) *UpdateHandle {
	return &UpdateHandle{conn: c, name: name}
}

// Name returns the writable-store name the handle addresses.
func (h *UpdateHandle) Name() string { return h.name }

// ApplyContext ships one update; a nil return means the server accepted
// it per its durability policy.
func (h *UpdateHandle) ApplyContext(ctx context.Context, u Update) error {
	_, err := h.conn.roundTripContext(ctx, opUpdate, h.name, marshalUpdate(u))
	return err
}

// FlushContext seals the store's pending batch into a fresh epoch
// remotely.
func (h *UpdateHandle) FlushContext(ctx context.Context) error {
	_, err := h.conn.roundTripContext(ctx, opDynFlush, h.name, nil)
	return err
}

// QueryRangeContext runs a range query on the writable store, returning
// decrypted live tuples (see the trust-model note above).
func (h *UpdateHandle) QueryRangeContext(ctx context.Context, q core.Range) ([]core.Tuple, error) {
	payload := make([]byte, 0, 16)
	payload = binary.BigEndian.AppendUint64(payload, q.Lo)
	payload = binary.BigEndian.AppendUint64(payload, q.Hi)
	resp, err := h.conn.roundTripContext(ctx, opDynQuery, h.name, payload)
	if err != nil {
		return nil, err
	}
	return unmarshalTuples(resp)
}
