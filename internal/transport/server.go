package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rsse/internal/core"
)

// connConcurrency caps the requests one connection may have executing
// at once: it is the connection's worker-pool ceiling (workers spawn
// lazily up to it). Requests from different connections are unbounded
// relative to each other.
const connConcurrency = 32

// connQueue bounds the requests a connection may have parsed but not
// yet executing. A full queue blocks the
// connection's read loop — backpressure lands in the peer's socket
// buffer instead of as unbounded server-side goroutines or memory.
const connQueue = 128

// writeCoalesce caps how many completed responses the connection's
// writer folds into one vectored write when the connection is busy.
const writeCoalesce = 64

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("transport: server closed")

// Server serves a Registry of named indexes to remote owners over any
// number of listeners. The server side holds no keys: everything it can
// learn is the schemes' formal leakage plus which named index each
// request addresses. Every connection's requests are dispatched
// concurrently — one slow search does not block the connection's other
// requests — and Shutdown drains in-flight requests before closing
// connections.
type Server struct {
	reg *Registry

	// logger, when set, receives structured serving events (connection
	// lifecycle at Debug, protocol errors at Warn) with per-connection
	// attrs; slowQuery > 0 additionally logs every request whose
	// execution exceeds the threshold. Both are set before Serve.
	logger    *slog.Logger
	slowQuery time.Duration
	connSeq   atomic.Uint64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}

	reqMu   sync.Mutex
	reqN    int
	down    bool
	drained chan struct{}
}

// NewServer creates a server over reg. The registry stays live: indexes
// registered or deregistered while serving are picked up per request.
func NewServer(reg *Registry) *Server {
	return &Server{
		reg:       reg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// SetLogger installs a structured logger for serving events: connection
// lifecycle at Debug, protocol errors at Warn, slow queries (see
// SetSlowQuery) at Warn. Call before Serve; nil (the default) disables
// serving logs.
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// SetSlowQuery sets the slow-query threshold: requests whose execution
// (queue wait excluded) takes at least d are logged at Warn with their
// op, index name, and duration (a fetch_many request also with its id
// count). Zero (the default) disables the
// slow-query log. Call before Serve; requires SetLogger.
func (s *Server) SetSlowQuery(d time.Duration) { s.slowQuery = d }

// connLogger derives the per-connection logger with conn id and peer
// attrs, or nil when serving logs are off.
func (s *Server) connLogger(conn net.Conn) *slog.Logger {
	if s.logger == nil {
		return nil
	}
	return s.logger.With(
		slog.Uint64("conn", s.connSeq.Add(1)),
		slog.String("remote", conn.RemoteAddr().String()),
	)
}

// closing reports whether Shutdown has begun.
func (s *Server) closing() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	return s.down
}

// beginRequest admits a request into the in-flight set; false after
// Shutdown has begun.
func (s *Server) beginRequest() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.down {
		return false
	}
	s.reqN++
	return true
}

func (s *Server) endRequest() {
	s.reqMu.Lock()
	s.reqN--
	if s.reqN == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
	s.reqMu.Unlock()
}

// Serve accepts connections on l until the listener closes or Shutdown
// is called; it returns nil in both cases. Multiple Serve calls on
// different listeners may run concurrently.
func (s *Server) Serve(l net.Listener) error {
	if s.closing() {
		return ErrServerClosed
	}
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.closing() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		tm.conns.Inc()
		tm.connsTotal.Inc()
		log := s.connLogger(conn)
		if log != nil {
			log.Debug("connection accepted")
		}
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				tm.conns.Dec()
			}()
			err := serveLoop(s.reg, conn, s, log, s.slowQuery)
			if log != nil {
				if err != nil {
					log.Warn("connection dropped", slog.Any("err", err))
				} else {
					log.Debug("connection closed")
				}
			}
		}()
	}
}

// Shutdown gracefully stops the server: listeners close immediately, no
// new requests are admitted, and in-flight requests finish (their
// responses flushed) before the connections are closed. If ctx expires
// first, remaining connections are closed anyway and ctx's error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	// Wake connection readers blocked on their next frame so they stop
	// admitting requests.
	now := time.Now()
	for c := range s.conns {
		_ = c.SetReadDeadline(now)
	}
	s.mu.Unlock()

	s.reqMu.Lock()
	s.down = true
	var drained chan struct{}
	if s.reqN > 0 {
		drained = make(chan struct{})
		s.drained = drained
	}
	s.reqMu.Unlock()

	var err error
	if drained != nil {
		select {
		case <-drained:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// Serve serves a single index under the default name until the listener
// is closed — the one-table deployment. For multiple named indexes or
// graceful shutdown, use NewServer with a Registry.
func Serve(l net.Listener, idx core.Source) error {
	return NewServer(singleRegistry(idx)).Serve(l)
}

// ServeConn answers requests for a single default-named index on one
// established connection until EOF or error (nil on clean EOF). Requests
// are still dispatched concurrently.
func ServeConn(conn io.ReadWriter, idx core.Source) error {
	return serveLoop(singleRegistry(idx), conn, nil, nil, 0)
}

// task is one admitted request awaiting a dispatcher worker.
type task struct {
	req request
	bp  *[]byte // pooled frame body backing req; recycled after the write
	enq time.Time
	// counted marks the request in srv's in-flight set (endRequest runs
	// after its response is written).
	counted bool
}

// completion is one executed request awaiting its response write.
type completion struct {
	id      uint32
	status  byte
	payload []byte
	bp      *[]byte // pooled request body; recycled after the write
	rp      *[]byte // pooled response body payload may live in; likewise
	counted bool
}

// dispatcher runs one connection's bounded worker pool and its response
// writer. Requests flow read loop → tasks → workers → compl → writer;
// the writer drains compl opportunistically and ships each drained
// group as one vectored write.
type dispatcher struct {
	reg *Registry
	srv *Server
	w   io.Writer

	log  *slog.Logger
	slow time.Duration

	tasks chan task
	compl chan completion

	spawned    int // workers started; touched only by the read loop
	workers    sync.WaitGroup
	writerDone chan struct{}
}

// serveLoop reads request frames from rw and feeds them to the
// connection's dispatcher: a worker pool bounded at connConcurrency
// (spawned lazily — a sequential request stream costs one worker) over
// a queue bounded at connQueue. A full queue blocks the read loop, so
// overload turns into TCP backpressure on the peer instead of unbounded
// goroutine fan-out, and completed responses leave through one writer
// that coalesces bursts into grouped vectored writes. srv, when
// non-nil, tracks in-flight requests for graceful shutdown; log, when
// non-nil, receives serving events, and slow enables the slow-query log.
func serveLoop(reg *Registry, rw io.ReadWriter, srv *Server, log *slog.Logger, slow time.Duration) error {
	br := bufio.NewReader(rw)
	d := &dispatcher{
		reg:   reg,
		srv:   srv,
		w:     rw,
		log:   log,
		slow:  slow,
		tasks: make(chan task, connQueue),
		// compl never blocks the workers for long: its capacity covers
		// every admissible task plus the read loop's shed responses.
		compl:      make(chan completion, connQueue+connConcurrency+1),
		writerDone: make(chan struct{}),
	}
	go d.writeLoop()
	// Drain on exit: workers finish their tasks, then the writer flushes
	// every remaining response, before the caller closes the connection.
	defer func() {
		close(d.tasks)
		d.workers.Wait()
		close(d.compl)
		<-d.writerDone
	}()
	for {
		// Request bodies come from a pool and go back once the request's
		// response is on the wire (see bodyPool for why that is safe);
		// each loop turn takes a fresh buffer because earlier requests
		// may still be executing on the pool's workers.
		bp := bodyPool.Get().(*[]byte)
		body, err := readFrameInto(br, (*bp)[:0])
		if err != nil {
			bodyPool.Put(bp)
			if errors.Is(err, io.EOF) || (srv != nil && srv.closing()) {
				return nil
			}
			tm.frameErrs.Inc()
			return err
		}
		tm.bytesIn.Add(uint64(4 + len(body)))
		*bp = body
		req, err := parseRequest(body)
		if err != nil {
			// Without a request id there is nothing to route an error to;
			// the framing is corrupt, drop the connection.
			bodyPool.Put(bp)
			tm.frameErrs.Inc()
			return err
		}
		if srv != nil && !srv.beginRequest() {
			// Shed without executing: the overload response routes straight
			// to the writer, telling the peer the server is alive but
			// refusing work (vs a dead connection).
			tm.shed.Inc()
			d.compl <- completion{id: req.id, status: statusOverload,
				payload: []byte(overloadMsg), bp: bp}
			continue
		}
		tm.queueDepth.Inc()
		d.submit(task{req: req, bp: bp, enq: time.Now(), counted: srv != nil})
	}
}

// submit queues one task, growing the worker pool while the queue is
// backing up (up to connConcurrency workers). Blocks when the queue is
// full — that is the connection's backpressure.
func (d *dispatcher) submit(t task) {
	d.tasks <- t
	if d.spawned == 0 || (d.spawned < connConcurrency && len(d.tasks) > 0) {
		d.spawned++
		d.workers.Add(1)
		go d.worker()
	}
}

// worker executes tasks until the queue closes.
func (d *dispatcher) worker() {
	defer d.workers.Done()
	tm.workers.Inc()
	defer tm.workers.Dec()
	for t := range d.tasks {
		tm.queueDepth.Dec()
		tm.queueWait.Record(time.Since(t.enq))
		c := completion{id: t.req.id, bp: t.bp, rp: bodyPool.Get().(*[]byte), counted: t.counted}
		oi := opIndex(t.req.op)
		start := time.Now()
		payload, herr := d.handle(t.req, c.rp)
		dur := time.Since(start)
		tm.requests[oi].Inc()
		tm.latency[oi].Record(dur)
		if herr != nil {
			tm.errors[oi].Inc()
			c.status = statusErr
			c.payload = []byte(herr.Error())
		} else {
			c.payload = payload
		}
		logSlowQuery(d.log, d.slow, t.req, dur, herr)
		d.compl <- c
	}
}

// errHandlerPanic is what the peer sees of a contained handler panic:
// a fixed message, so no stack frame or pointer value reaches the wire.
var errHandlerPanic = errors.New("transport: internal error: request handler panicked")

// handle is handleRequest with a handler panic contained to this
// request (see recoverHandler).
func (d *dispatcher) handle(req request, buf *[]byte) (payload []byte, err error) {
	defer d.recoverHandler(req, &err)
	return handleRequest(d.reg, req, buf)
}

// recoverHandler, deferred around a handler call, turns a panic into
// errHandlerPanic for that one request: the worker goes on to answer it
// like any failed request, so the body buffer recycles, the in-flight
// accounting closes, and the connection and process keep serving. The
// panic value and stack go to the log (the process default logger when
// the connection has none — a contained panic must not be silent) and
// rsse_handler_panics_total counts it. Every search runs on this
// goroutine, so every handler panic reaches this recover.
func (d *dispatcher) recoverHandler(req request, err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = errHandlerPanic
	tm.panics.Inc()
	log := d.log
	if log == nil {
		log = slog.Default()
	}
	log.Error("handler panic",
		slog.Uint64("req", uint64(req.id)),
		slog.String("op", opLabel[opIndex(req.op)]),
		slog.String("index", req.name),
		slog.Any("panic", r),
		slog.String("stack", string(debug.Stack())))
}

// logSlowQuery emits the slow-query Warn record when a request's
// execution crossed the threshold (and the connection has a logger).
func logSlowQuery(log *slog.Logger, slow time.Duration, req request, dur time.Duration, herr error) {
	if log == nil || slow <= 0 || dur < slow {
		return
	}
	attrs := []any{
		slog.Uint64("req", uint64(req.id)),
		slog.String("op", opLabel[opIndex(req.op)]),
		slog.String("index", req.name),
		slog.Duration("dur", dur),
	}
	if req.op == opFetchMany {
		attrs = append(attrs, slog.Int("ids", fetchManyCount(req.payload)))
	}
	if herr != nil {
		attrs = append(attrs, slog.Any("err", herr))
	}
	log.Warn("slow query", attrs...)
}

// writeLoop ships completed responses. Each wakeup drains whatever has
// completed (capped at writeCoalesce) and writes the whole group as one
// vectored write: an idle connection still gets one write per response,
// a busy one amortizes the syscall and the wakeup across the burst.
func (d *dispatcher) writeLoop() {
	defer close(d.writerDone)
	fw := getFrameWriter()
	defer putFrameWriter(fw)
	batch := make([]completion, 0, writeCoalesce)
	for c := range d.compl {
		batch = append(batch[:0], c)
		// Yield once before draining: completions arrive from workers
		// that are still runnable, and socket writes on a ready
		// descriptor never deschedule this goroutine. One scheduler
		// round lets the rest of the burst complete so the drain below
		// folds it into the same vectored write.
		runtime.Gosched()
	drain:
		for len(batch) < writeCoalesce {
			select {
			case c2, ok := <-d.compl:
				if !ok {
					break drain
				}
				batch = append(batch, c2)
			default:
				break drain
			}
		}
		d.writeBatch(fw, batch)
	}
}

// writeBatch stages the group's response frames and ships them with one
// vectored write. An oversized response is rolled back and replaced by
// an err-response so the waiting request fails instead of hanging;
// write errors are dropped (the read side of a dead connection surfaces
// them to serveLoop). Request and response bodies recycle and in-flight
// accounting closes only after the group is on the wire, so graceful
// shutdown never closes a connection under a pending response.
func (d *dispatcher) writeBatch(fw *frameWriter, batch []completion) {
	fw.reset()
	out := 0
	for _, c := range batch {
		fw.beginFrame()
		fw.stageUint32(c.id)
		fw.stageByte(c.status)
		fw.ref(c.payload)
		if err := fw.endFrame(); err != nil {
			fw.beginFrame()
			fw.stageUint32(c.id)
			fw.stageByte(statusErr)
			fw.stageString(ErrFrameTooLarge.Error())
			_ = fw.endFrame()
			out += 4 + responseHeader + len(ErrFrameTooLarge.Error())
		} else {
			out += 4 + responseHeader + len(c.payload)
		}
		if c.status == statusOverload {
			tm.overload.Inc()
		}
	}
	_ = fw.flushAll(d.w)
	tm.bytesOut.Add(uint64(out))
	for _, c := range batch {
		if c.bp != nil {
			bodyPool.Put(c.bp)
		}
		if c.rp != nil {
			bodyPool.Put(c.rp)
		}
		if c.counted {
			d.srv.endRequest()
		}
	}
}
