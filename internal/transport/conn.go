package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"

	"rsse/internal/core"
	"rsse/internal/prf"
)

// Conn is the owner-side end of a connection to a multi-index server.
// It is safe for concurrent use: requests are multiplexed by id, so any
// number of goroutines may query through one connection (and through one
// IndexHandle) simultaneously, each response routed back to its caller
// as the server produces it.
type Conn struct {
	conn io.ReadWriteCloser

	wq writeQueue // combines concurrent request frames into batched writes

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan rpcResult
	// abandoned holds ids whose caller gave up (context expired) before
	// the response arrived: the late response is expected and discarded.
	// Any other unknown id is protocol corruption and kills the conn.
	abandoned map[uint32]struct{}
	readErr   error // sticky: set once the read loop dies
}

type rpcResult struct {
	status  byte
	payload []byte
}

// writeQueue is a combining buffer for request frames: concurrent
// round trips stage their frames under a short critical section, and
// whichever goroutine finds the queue idle becomes the flusher,
// draining everything staged so far with a single write. With many
// requests in flight this collapses k frame-sized writes into one
// syscall carrying k frames, mirroring the server's coalesced response
// path from the other side of the socket.
//
// Frames are staged by copy (requests are small: header, name, and a
// trapdoor or update payload), which also makes staging independent of
// the caller's buffer lifetime — a caller that abandons on context
// expiry may reuse its payload before the flush happens.
type writeQueue struct {
	mu       sync.Mutex
	buf      []byte // frames staged since the last flush began
	spare    []byte // recycled buffer for the next staging round
	flushing bool
	err      error // sticky: set once a write fails; the conn is dead
}

// enqueueFrame stages one request frame and flushes the queue if no
// other goroutine is already doing so. It returns once the frame is
// either written or staged behind an active flusher; a write error
// poisons the queue and closes the connection, so waiters see the
// failure through the read loop's shutdown.
func (c *Conn) enqueueFrame(id uint32, op byte, name string, payload []byte) error {
	n := requestHeader + len(name) + len(payload)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	q := &c.wq
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		return err
	}
	q.buf = binary.BigEndian.AppendUint32(q.buf, uint32(n))
	q.buf = binary.BigEndian.AppendUint32(q.buf, id)
	q.buf = append(q.buf, op, byte(len(name)))
	q.buf = append(q.buf, name...)
	q.buf = append(q.buf, payload...)
	if q.flushing {
		// An active flusher will pick this frame up in its next round.
		q.mu.Unlock()
		return nil
	}
	q.flushing = true
	q.mu.Unlock()
	// Yield once before flushing: socket writes on a ready descriptor
	// are fast syscalls that never deschedule, so without this the
	// flusher would always run ahead of every other ready sender and
	// each frame would pay its own syscall. One scheduler round lets the
	// senders the last response burst woke stage their frames first,
	// and the write below carries all of them.
	runtime.Gosched()
	q.mu.Lock()
	for q.err == nil && len(q.buf) > 0 {
		out := q.buf
		q.buf = q.spare[:0]
		q.mu.Unlock()
		_, err := c.conn.Write(out)
		q.mu.Lock()
		q.spare = out[:0]
		if err != nil {
			q.err = fmt.Errorf("%w: write: %v", ErrConnDead, err)
		}
	}
	q.flushing = false
	err := q.err
	q.mu.Unlock()
	if err != nil {
		// Kill the connection so the read loop fails every pending
		// request, including frames staged behind the failed write.
		c.conn.Close()
	}
	return err
}

// NewConn wraps an established stream connection and starts its response
// demultiplexer.
func NewConn(conn io.ReadWriteCloser) *Conn {
	c := &Conn{
		conn:      conn,
		pending:   make(map[uint32]chan rpcResult),
		abandoned: make(map[uint32]struct{}),
	}
	go c.readLoop()
	return c
}

// Dial connects to a serving address ("tcp", "host:port" etc.).
func Dial(network, addr string) (*Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Close closes the underlying connection; outstanding requests fail.
func (c *Conn) Close() error { return c.conn.Close() }

// Err returns the sticky transport error: non-nil once either the
// read loop or the write path has died. A non-nil Err wraps
// ErrConnDead and never clears — dead conns are replaced (see
// Redialer), not revived.
func (c *Conn) Err() error {
	c.mu.Lock()
	readErr := c.readErr
	c.mu.Unlock()
	if readErr != nil {
		return readErr
	}
	c.wq.mu.Lock()
	defer c.wq.mu.Unlock()
	return c.wq.err
}

// Dead reports whether the connection can no longer carry requests.
func (c *Conn) Dead() bool { return c.Err() != nil }

// readLoop routes response frames to their waiting requests until the
// connection dies, then fails everything outstanding.
func (c *Conn) readLoop() {
	// Wide enough to drain a whole coalesced response burst (the server
	// combines up to 64 responses per write) in one read syscall.
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var err error
	for {
		var body []byte
		if body, err = readFrame(br); err != nil {
			break
		}
		if len(body) < responseHeader {
			err = fmt.Errorf("transport: short response (%d bytes)", len(body))
			break
		}
		id := binary.BigEndian.Uint32(body[:4])
		status := body[4]
		c.mu.Lock()
		// Every request gets exactly one response frame: the first retires
		// it.
		ch, ok := c.pending[id]
		delete(c.pending, id)
		if !ok {
			_, wasAbandoned := c.abandoned[id]
			delete(c.abandoned, id)
			c.mu.Unlock()
			if wasAbandoned {
				// The caller's context expired before this response
				// arrived: the server did the work, nobody is waiting.
				continue
			}
			err = fmt.Errorf("transport: response for unknown request %d", id)
			break
		}
		c.mu.Unlock()
		ch <- rpcResult{status: status, payload: body[responseHeader:]}
	}
	c.mu.Lock()
	c.readErr = fmt.Errorf("%w: connection lost: %v", ErrConnDead, err)
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch) // a closed channel signals transport failure
	}
	c.mu.Unlock()
}

// roundTrip sends one request and waits for its response. Concurrent
// callers interleave freely.
func (c *Conn) roundTrip(op byte, name string, payload []byte) ([]byte, error) {
	return c.roundTripContext(context.Background(), op, name, payload)
}

// roundTripContext is roundTrip with cancellation: when ctx expires
// before the response arrives, the pending slot is abandoned (a late
// response for it is discarded by the read loop) and ctx's error is
// returned immediately.
func (c *Conn) roundTripContext(ctx context.Context, op byte, name string, payload []byte) ([]byte, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("%w: %q", ErrBadIndexName, name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan rpcResult, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	c.mu.Unlock()

	// The request joins the connection's combining write queue: under
	// concurrent load many callers' frames leave in one write instead of
	// one syscall each.
	if err := c.enqueueFrame(id, op, name, payload); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}

	var (
		res rpcResult
		ok  bool
	)
	select {
	case res, ok = <-ch:
	case <-ctx.Done():
		c.mu.Lock()
		if _, still := c.pending[id]; still {
			delete(c.pending, id)
			c.abandoned[id] = struct{}{}
		}
		c.mu.Unlock()
		// The response may have been delivered in the race window above;
		// prefer it so the abandoned set only holds truly unanswered ids.
		select {
		case res, ok = <-ch:
			c.mu.Lock()
			delete(c.abandoned, id)
			c.mu.Unlock()
		default:
			return nil, ctx.Err()
		}
	}
	if !ok {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	switch res.status {
	case statusOK:
		return res.payload, nil
	case statusErr:
		return nil, fmt.Errorf("transport: server: %s", res.payload)
	case statusOverload:
		// The server is up but shed this request; wrap ErrOverloaded so
		// callers can errors.Is it and back off instead of failing over.
		return nil, fmt.Errorf("%w (%s)", ErrOverloaded, res.payload)
	default:
		return nil, fmt.Errorf("transport: bad response status %d", res.status)
	}
}

// Names asks the server which indexes it serves.
func (c *Conn) Names() ([]string, error) {
	payload, err := c.roundTrip(opNames, "", nil)
	if err != nil {
		return nil, err
	}
	return parseNames(payload)
}

// Index returns a handle on the served index called name. The handle
// is a core.Source and is safe for concurrent use; creating it
// performs no I/O (an unknown name surfaces on first use).
func (c *Conn) Index(name string) *IndexHandle {
	return &IndexHandle{conn: c, name: name}
}

// Default returns the handle single-index deployments talk to.
func (c *Conn) Default() *IndexHandle { return c.Index(DefaultIndex) }

// IndexHandle addresses one named index over a shared Conn. It is a
// core.Source; all methods are safe for concurrent use.
type IndexHandle struct {
	conn *Conn
	name string
	meta metaCache
}

// Name returns the index name the handle addresses.
func (h *IndexHandle) Name() string { return h.name }

// metaCache keeps a handle's index metadata once a meta exchange has
// succeeded (index metadata is immutable); failures are not kept, so a
// transient transport error cannot poison the handle. The lock is not
// held across the exchange: a caller whose context expires is never
// stuck behind another caller's slower one.
type metaCache struct {
	mu   sync.Mutex
	ok   bool
	meta core.IndexMeta
}

// get returns the kept metadata, or runs fetch under ctx and keeps its
// result.
func (m *metaCache) get(ctx context.Context, fetch func(context.Context) (core.IndexMeta, error)) (core.IndexMeta, error) {
	m.mu.Lock()
	meta, ok := m.meta, m.ok
	m.mu.Unlock()
	if ok {
		return meta, nil
	}
	meta, err := fetch(ctx)
	if err != nil {
		return core.IndexMeta{}, err
	}
	m.mu.Lock()
	m.meta, m.ok = meta, true
	m.mu.Unlock()
	return meta, nil
}

// fetchMeta performs one meta round trip for name over c.
func fetchMeta(ctx context.Context, c *Conn, name string) (core.IndexMeta, error) {
	resp, err := c.roundTripContext(ctx, opMeta, name, nil)
	if err != nil {
		return core.IndexMeta{}, err
	}
	return parseMeta(resp)
}

// A meta response is kind(1) domBits(1) posBits(1) n(8) suite(1).
const metaLen = 12

func parseMeta(resp []byte) (core.IndexMeta, error) {
	if len(resp) != metaLen {
		return core.IndexMeta{}, fmt.Errorf("transport: bad meta response length %d", len(resp))
	}
	meta := core.IndexMeta{
		Kind:       core.Kind(resp[0]),
		DomainBits: resp[1],
		PosBits:    resp[2],
		N:          int(binary.BigEndian.Uint64(resp[3:11])),
		Suite:      prf.Suite(resp[11]),
	}
	if !meta.Suite.Valid() {
		// Trapdoors derived under a suite this client does not implement
		// would silently find nothing.
		return core.IndexMeta{}, fmt.Errorf("%w: meta names unknown PRF suite %d", core.ErrCorruptIndex, resp[11])
	}
	return meta, nil
}

// MetaContext implements core.Source. A successful result is cached for
// the handle's lifetime (see metaCache); the round trip aborts as soon
// as ctx is done.
func (h *IndexHandle) MetaContext(ctx context.Context) (core.IndexMeta, error) {
	return h.meta.get(ctx, func(ctx context.Context) (core.IndexMeta, error) {
		return fetchMeta(ctx, h.conn, h.name)
	})
}

// Meta is MetaContext without cancellation.
//
// Deprecated: call MetaContext.
func (h *IndexHandle) Meta() (core.IndexMeta, error) { return h.MetaContext(context.Background()) }

// SearchContext implements core.Source: the round trip aborts as soon
// as ctx is done.
func (h *IndexHandle) SearchContext(ctx context.Context, t *core.Trapdoor) (*core.Response, error) {
	payload, err := t.MarshalBinary()
	if err != nil {
		return nil, err
	}
	resp, err := h.conn.roundTripContext(ctx, opSearch, h.name, payload)
	if err != nil {
		return nil, err
	}
	return core.UnmarshalResponse(resp)
}
