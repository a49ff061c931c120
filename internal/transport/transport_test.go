package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/dprf"
	"rsse/internal/prf"
	"rsse/internal/sse"
)

func testClientIndex(t testing.TB, kind core.Kind) (*core.Client, *core.Index, []core.Tuple) {
	t.Helper()
	rnd := mrand.New(mrand.NewSource(7))
	tuples := make([]core.Tuple, 200)
	for i := range tuples {
		tuples[i] = core.Tuple{
			ID:      uint64(i + 1),
			Value:   rnd.Uint64() % 1024,
			Payload: []byte{byte(i), byte(i >> 8)},
		}
	}
	c, err := core.NewClient(kind, cover.Domain{Bits: 10}, core.Options{
		SSE:               sse.Basic{},
		Rand:              mrand.New(mrand.NewSource(8)),
		MasterKey:         bytes.Repeat([]byte{9}, 32),
		AllowIntersecting: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	return c, idx, tuples
}

func exact(tuples []core.Tuple, q core.Range) []core.ID {
	var out []core.ID
	for _, tu := range tuples {
		if q.Contains(tu.Value) {
			out = append(out, tu.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pipeServer serves idx under the default name over one end of a
// net.Pipe and returns the owner-side Conn.
func pipeServer(t *testing.T, idx core.Source) *Conn {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	go func() { _ = ServeConn(serverEnd, idx) }()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	return NewConn(clientEnd)
}

// frame length-prefixes one frame body.
func frame(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// requestFrame is one request frame as a Conn lays it out: length
// prefix, id, op, name length, name, payload.
func requestFrame(id uint32, op byte, name string, payload []byte) []byte {
	body := binary.BigEndian.AppendUint32(nil, id)
	body = append(body, op, byte(len(name)))
	body = append(body, name...)
	return frame(append(body, payload...))
}

// pipeRegistry serves a full registry over a net.Pipe.
func pipeRegistry(t *testing.T, reg *Registry) *Conn {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	go func() { _ = serveLoop(reg, serverEnd, nil, nil, 0) }()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	return NewConn(clientEnd)
}

// TestRemoteQueryAllSchemes runs the full query protocol over a pipe for
// every scheme, including the interactive SRC-i (two Search round trips).
func TestRemoteQueryAllSchemes(t *testing.T) {
	kinds := []core.Kind{
		core.ConstantBRC, core.ConstantURC,
		core.LogarithmicBRC, core.LogarithmicURC,
		core.LogarithmicSRC, core.LogarithmicSRCi,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			c, idx, tuples := testClientIndex(t, kind)
			remote := pipeServer(t, idx).Default()
			for _, q := range []core.Range{{Lo: 100, Hi: 600}, {Lo: 0, Hi: 1023}, {Lo: 777, Hi: 777}} {
				res, err := c.QueryContext(context.Background(), remote, q)
				if err != nil {
					t.Fatalf("query %v: %v", q, err)
				}
				got := append([]core.ID(nil), res.Matches...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				want := exact(tuples, q)
				if len(got) != len(want) {
					t.Fatalf("query %v: got %d matches, want %d", q, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("query %v: match %d = %d, want %d", q, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRemoteFetchTuple: fetching one tuple remotely is one one-id
// fetch-many frame and nothing else, and moves rsse_index_fetches_total
// by one.
func TestRemoteFetchTuple(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicBRC)
	const name = "fetch-tuple"
	reg := NewRegistry()
	if err := reg.Register(name, idx); err != nil {
		t.Fatal(err)
	}
	remote := pipeRegistry(t, reg).Index(name)
	fetches := ixFetches.With(name)
	before, fetches0 := requestCounts(), fetches.Value()
	tups, err := c.FetchTuples(context.Background(), remote, []core.ID{tuples[5].ID})
	if err != nil {
		t.Fatal(err)
	}
	if tup := tups[0]; tup.Value != tuples[5].Value || !bytes.Equal(tup.Payload, tuples[5].Payload) {
		t.Errorf("remote fetch = %+v, want %+v", tup, tuples[5])
	}
	var want [len(opLabel)]uint64
	want[opFetchMany] = 1
	if got := requestsSince(before); got != want {
		t.Errorf("one-tuple fetch cost frames %v by op, want %v", got, want)
	}
	if got := fetches.Value() - fetches0; got != 1 {
		t.Errorf("rsse_index_fetches_total moved by %d, want 1", got)
	}
	if _, err := c.FetchTuples(context.Background(), remote, []core.ID{99999}); err == nil {
		t.Error("unknown id fetched remotely")
	}
}

func TestRemoteMetaCached(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicSRCi)
	remote := pipeServer(t, idx).Default()
	a, err := remote.MetaContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := remote.MetaContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Kind != core.LogarithmicSRCi || a.N != 200 || a.DomainBits != 10 {
		t.Errorf("meta = %+v / %+v", a, b)
	}
}

// TestQueryMetaHonoursContext: a query's first exchange on a fresh
// handle is meta, and it honours the query's context like every later
// one. Against a server that reads requests but never answers, a 100 ms
// query returns DeadlineExceeded instead of blocking — even while an
// earlier caller with no deadline is stuck in the same handle's meta
// exchange.
func TestQueryMetaHonoursContext(t *testing.T) {
	client, _ := batchTestIndex(t, 281)
	for _, tc := range []struct {
		name  string
		query func(ctx context.Context, h *IndexHandle) error
	}{
		{"QueryServerContext", func(ctx context.Context, h *IndexHandle) error {
			_, err := client.QueryContext(ctx, h, core.Range{Lo: 0, Hi: 100})
			return err
		}},
		{"QueryBatchContext", func(ctx context.Context, h *IndexHandle) error {
			_, err := client.QueryBatchContext(ctx, h, batchRanges(4))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serverEnd, clientEnd := net.Pipe()
			read := make(chan struct{}, 1)
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := serverEnd.Read(buf); err != nil {
						return
					}
					select {
					case read <- struct{}{}:
					default:
					}
				}
			}()
			conn := NewConn(clientEnd)
			t.Cleanup(func() { conn.Close(); serverEnd.Close() })
			h := conn.Default()
			go func() { _, _ = h.MetaContext(context.Background()) }() // returns when the cleanup closes conn
			<-read                                                     // that caller's meta request is out
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- tc.query(ctx, h) }()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a 100 ms query is still blocked in its meta exchange after 2 s")
			}
		})
	}
}

func TestRemoteKindMismatch(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicSRC)
	other, err := core.NewClient(core.LogarithmicBRC, cover.Domain{Bits: 10}, core.Options{SSE: sse.Basic{}})
	if err != nil {
		t.Fatal(err)
	}
	remote := pipeServer(t, idx).Default()
	if _, err := other.QueryContext(context.Background(), remote, core.Range{Lo: 0, Hi: 5}); !errors.Is(err, core.ErrKindMismatch) {
		t.Errorf("kind mismatch error = %v", err)
	}
}

// TestRegistry exercises the registry's own bookkeeping.
func TestRegistry(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicBRC)
	reg := NewRegistry()
	if err := reg.Register("a", idx); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("a", idx); !errors.Is(err, ErrDuplicateIndex) {
		t.Errorf("duplicate register error = %v", err)
	}
	if err := reg.Register("", idx); !errors.Is(err, ErrBadIndexName) {
		t.Errorf("empty name error = %v", err)
	}
	if err := reg.Register(strings.Repeat("x", 300), idx); !errors.Is(err, ErrBadIndexName) {
		t.Errorf("long name error = %v", err)
	}
	if err := reg.Register("b", idx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("names = %v", got)
	}
	if _, _, err := reg.lookupServing("nope"); !errors.Is(err, ErrUnknownIndex) {
		t.Errorf("unknown lookup error = %v", err)
	}
	if !reg.Deregister("a") || reg.Deregister("a") {
		t.Error("deregister bookkeeping broken")
	}
	if reg.Len() != 1 {
		t.Errorf("len = %d", reg.Len())
	}
}

// TestMaxLengthIndexName serves an index under a 255-byte name — the
// longest the wire's length byte can carry — end to end.
func TestMaxLengthIndexName(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicBRC)
	long := strings.Repeat("n", 255)
	reg := NewRegistry()
	if err := reg.Register(long, idx); err != nil {
		t.Fatal(err)
	}
	conn := pipeRegistry(t, reg)
	names, err := conn.Names()
	if err != nil || len(names) != 1 || names[0] != long {
		t.Fatalf("Names = %v, %v", names, err)
	}
	q := core.Range{Lo: 0, Hi: 500}
	res, err := c.QueryContext(context.Background(), conn.Index(long), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(exact(tuples, q)) {
		t.Errorf("got %d matches", len(res.Matches))
	}
}

// TestMultiIndexServer serves two independently-keyed indexes of
// different schemes from one process and queries both over one
// connection.
func TestMultiIndexServer(t *testing.T) {
	cBRC, idxBRC, tuplesBRC := testClientIndex(t, core.LogarithmicBRC)
	cSRC, idxSRC, tuplesSRC := testClientIndex(t, core.LogarithmicSRC)
	reg := NewRegistry()
	if err := reg.Register("brc", idxBRC); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("src", idxSRC); err != nil {
		t.Fatal(err)
	}
	conn := pipeRegistry(t, reg)

	names, err := conn.Names()
	if err != nil || len(names) != 2 || names[0] != "brc" || names[1] != "src" {
		t.Fatalf("Names = %v, %v", names, err)
	}

	q := core.Range{Lo: 64, Hi: 700}
	resBRC, err := cBRC.QueryContext(context.Background(), conn.Index("brc"), q)
	if err != nil {
		t.Fatal(err)
	}
	resSRC, err := cSRC.QueryContext(context.Background(), conn.Index("src"), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resBRC.Matches) != len(exact(tuplesBRC, q)) {
		t.Errorf("brc matches = %d", len(resBRC.Matches))
	}
	if len(resSRC.Matches) != len(exact(tuplesSRC, q)) {
		t.Errorf("src matches = %d", len(resSRC.Matches))
	}

	// Unknown index: clean server-side error, connection stays usable.
	if _, err := cBRC.QueryContext(context.Background(), conn.Index("ghost"), q); err == nil ||
		!strings.Contains(err.Error(), "unknown index") {
		t.Errorf("ghost index error = %v", err)
	}
	if _, err := conn.Index("ghost").MetaContext(context.Background()); err == nil {
		t.Error("Meta(ghost) succeeded")
	}
	if _, err := cBRC.QueryContext(context.Background(), conn.Index("brc"), core.Range{Lo: 0, Hi: 63}); err != nil {
		t.Errorf("connection unusable after unknown-index error: %v", err)
	}
}

// TestOneConnConcurrentUse hammers a single Conn (and a single handle)
// from many goroutines — the regression test for the old frame-stream
// corruption footgun; run with -race.
func TestOneConnConcurrentUse(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicBRC)
	conn := pipeServer(t, idx)
	handle := conn.Default()
	q := core.Range{Lo: 200, Hi: 800}
	want := exact(tuples, q)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Clients are not concurrent-safe; one per goroutine, same key.
			cc, err := core.NewClient(core.LogarithmicBRC, cover.Domain{Bits: 10}, core.Options{
				SSE:       sse.Basic{},
				MasterKey: bytes.Repeat([]byte{9}, 32),
			})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			for rep := 0; rep < 5; rep++ {
				res, err := cc.QueryContext(context.Background(), handle, q)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(res.Matches) != len(want) {
					t.Errorf("goroutine %d: got %d matches, want %d", g, len(res.Matches), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	_ = c
}

// TestServerLoad is the transport load test: N concurrent clients × M
// queries each, against one served registry of two indexes over real TCP,
// results checked against local Query. Run with -race.
func TestServerLoad(t *testing.T) {
	kinds := map[string]core.Kind{"brc": core.LogarithmicBRC, "srci": core.LogarithmicSRCi}
	tuplesOf := map[string][]core.Tuple{}
	reg := NewRegistry()
	for name, kind := range kinds {
		_, idx, tuples := testClientIndex(t, kind)
		if err := reg.Register(name, idx); err != nil {
			t.Fatal(err)
		}
		tuplesOf[name] = tuples
	}
	srv := NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	const clients, queriesPerClient = 8, 6
	queries := []core.Range{{Lo: 0, Hi: 1023}, {Lo: 100, Hi: 600}, {Lo: 512, Hi: 515}}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := Dial("tcp", l.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			for name, kind := range kinds {
				cc, err := core.NewClient(kind, cover.Domain{Bits: 10}, core.Options{
					SSE:       sse.Basic{},
					MasterKey: bytes.Repeat([]byte{9}, 32),
				})
				if err != nil {
					t.Errorf("client: %v", err)
					return
				}
				handle := conn.Index(name)
				for rep := 0; rep < queriesPerClient; rep++ {
					q := queries[(i+rep)%len(queries)]
					res, err := cc.QueryContext(context.Background(), handle, q)
					if err != nil {
						t.Errorf("client %d %s: %v", i, name, err)
						return
					}
					got := append([]core.ID(nil), res.Matches...)
					sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
					want := exact(tuplesOf[name], q)
					if len(got) != len(want) {
						t.Errorf("client %d %s: %d matches, want %d", i, name, len(got), len(want))
						return
					}
					for j := range got {
						if got[j] != want[j] {
							t.Errorf("client %d %s: result mismatch", i, name)
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// slowIndex wraps a core.Source and delays MetaContext — for shutdown
// draining.
type slowIndex struct {
	core.Source
	delay time.Duration
}

func (s *slowIndex) MetaContext(ctx context.Context) (core.IndexMeta, error) {
	time.Sleep(s.delay)
	return s.Source.MetaContext(ctx)
}

// TestGracefulShutdown: a request in flight when Shutdown begins still
// completes and its response arrives; afterwards the listener is closed.
func TestGracefulShutdown(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicBRC)
	reg := NewRegistry()
	if err := reg.Register(DefaultIndex, &slowIndex{Source: idx, delay: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	conn, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	metaDone := make(chan error, 1)
	go func() {
		_, err := conn.Default().MetaContext(context.Background())
		metaDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-metaDone; err != nil {
		t.Errorf("in-flight request dropped during shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
	if _, err := Dial("tcp", l.Addr().String()); err == nil {
		t.Error("listener still accepting after shutdown")
	}
	if err := srv.Serve(l); !errors.Is(err, ErrServerClosed) {
		t.Errorf("serve after shutdown = %v", err)
	}
}

func TestServerRejectsGarbageRequests(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicBRC)
	serverEnd, clientEnd := net.Pipe()
	go func() { _ = ServeConn(serverEnd, idx) }()
	defer serverEnd.Close()
	defer clientEnd.Close()

	// Unknown op — including the retired per-id fetch op 3, batch-query
	// op 5 and batch-stream op 9 — → one statusErr response routed by
	// request id, connection stays up.
	for _, op := range []byte{77, 9, 3, 5} {
		if _, err := clientEnd.Write(requestFrame(42, op, DefaultIndex, []byte("junk"))); err != nil {
			t.Fatal(err)
		}
		body, err := readFrame(clientEnd)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) < responseHeader || binary.BigEndian.Uint32(body) != 42 || body[4] != statusErr ||
			!strings.Contains(string(body[responseHeader:]), "unknown request") {
			t.Errorf("op %d: response = %x", op, body)
		}
	}
	// The connection still answers valid requests afterwards.
	conn := NewConn(clientEnd)
	meta, err := conn.Default().MetaContext(context.Background())
	if err != nil || meta.Kind != core.LogarithmicBRC {
		t.Errorf("meta after garbage: %+v, %v", meta, err)
	}
}

// TestOversizedTokenLevelOverWire: a GGM token whose level byte exceeds
// the index's domain height — one byte an untrusted peer controls —
// comes back as an error response on the search op, the only op that
// carries tokens, and the connection keeps serving. Level 64 used to
// panic the serving goroutine (and the process with it), levels 31-63
// to size an allocation by 2^Level.
func TestOversizedTokenLevelOverWire(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.ConstantBRC)
	h := pipeServer(t, idx).Default()
	for _, level := range []uint8{11, 40, 64, 255} {
		bad := &core.Trapdoor{GGM: []dprf.Token{{Level: level}}}
		if _, err := h.SearchContext(context.Background(), bad); err == nil || !strings.Contains(err.Error(), core.ErrTokenLevel.Error()) {
			t.Errorf("search with a level-%d token: err %v, want the server's %q", level, err, core.ErrTokenLevel)
		}
	}
	q := core.Range{Lo: 100, Hi: 300}
	res, err := c.QueryContext(context.Background(), h, q)
	if err != nil {
		t.Fatalf("query after refused tokens: %v", err)
	}
	if want := exact(tuples, q); len(res.Matches) != len(want) {
		t.Fatalf("query after refused tokens: %d matches, want %d", len(res.Matches), len(want))
	}
}

// TestFrameLimits: MaxFrame holds on the writers serving runs. A
// request over it fails with ErrFrameTooLarge before a byte is staged,
// and the same Conn serves the next request. A response over it is
// rolled back inside its coalesced group: the group's earlier frames
// leave intact, the oversized one is replaced by an error frame routed
// to its request, and the frames after it follow. A forged oversized
// header is refused on read.
func TestFrameLimits(t *testing.T) {
	// One zero buffer past the limit, never written to, serves both
	// writers: neither copies it.
	huge := make([]byte, MaxFrame+1)

	_, idx, _ := testClientIndex(t, core.LogarithmicBRC)
	conn := pipeServer(t, idx)
	if _, err := conn.roundTrip(opSearch, DefaultIndex, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized request error = %v", err)
	}
	if meta, err := conn.Default().MetaContext(context.Background()); err != nil || meta.Kind != core.LogarithmicBRC {
		t.Errorf("meta after the oversized request: %+v, %v", meta, err)
	}

	var out bytes.Buffer
	d := &dispatcher{w: &out}
	fw := getFrameWriter()
	defer putFrameWriter(fw)
	large := bytes.Repeat([]byte{7}, 2*inlineThreshold) // spliced zero-copy, like huge
	d.writeBatch(fw, []completion{
		{id: 1, status: statusOK, payload: large},
		{id: 2, status: statusOK, payload: huge},
		{id: 3, status: statusOK, payload: []byte("after")},
	})
	for _, want := range []struct {
		id      uint32
		status  byte
		payload []byte
	}{
		{1, statusOK, large},
		{2, statusErr, []byte(ErrFrameTooLarge.Error())},
		{3, statusOK, []byte("after")},
	} {
		body, err := readFrame(&out)
		if err == nil && len(body) < responseHeader {
			err = fmt.Errorf("%d-byte frame", len(body))
		}
		if err != nil {
			t.Fatalf("response %d: %v", want.id, err)
		}
		if binary.BigEndian.Uint32(body) != want.id || body[4] != want.status || !bytes.Equal(body[responseHeader:], want.payload) {
			t.Errorf("response %d: id %d status %d, %d payload bytes; want status %d, %d bytes",
				want.id, binary.BigEndian.Uint32(body), body[4], len(body)-responseHeader, want.status, len(want.payload))
		}
	}
	if out.Len() != 0 {
		t.Errorf("%d stray bytes after the group", out.Len())
	}

	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized read error = %v", err)
	}
}

// TestFrameHeaderBuysNoAllocation: a frame header is four bytes from an
// untrusted peer. Announcing MaxFrame and sending nothing (or a little)
// must cost about what was sent, on the server's pooled read and the
// client's; a whole frame larger than the first growth step still
// arrives intact.
func TestFrameHeaderBuysNoAllocation(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame)
	for name, read := range map[string]func(io.Reader) ([]byte, error){
		"readFrame":     readFrame,
		"readFrameInto": func(r io.Reader) ([]byte, error) { return readFrameInto(r, make([]byte, 0, 64)) },
	} {
		for _, sent := range []int{0, 100, 3 << 20} {
			stream := append(append([]byte(nil), hdr...), make([]byte, sent)...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := read(bytes.NewReader(stream))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) && !(sent == 0 && errors.Is(err, io.EOF)) {
				t.Errorf("%s: %d of %d body bytes: err %v, want an unexpected EOF", name, sent, MaxFrame, err)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*sent+2<<20); got >= limit {
				t.Errorf("%s: %d body bytes behind a %d-byte header allocated %d bytes, want < %d", name, sent, MaxFrame, got, limit)
			}
		}
	}
	// A real frame of several growth steps: every byte in place.
	body := make([]byte, 5<<20+123)
	for i := range body {
		body[i] = byte(i * 7)
	}
	buf := bytes.NewBuffer(frame(body))
	got, err := readFrame(buf)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("multi-step frame: err %v, %d bytes, equal %v", err, len(got), bytes.Equal(got, body))
	}
	// A pooled buffer that already has the capacity is used as is.
	pooled := make([]byte, 0, 4096)
	buf.Write(frame(body[:1000]))
	if got, err = readFrameInto(buf, pooled); err != nil || &got[0] != &pooled[:1][0] || !bytes.Equal(got, body[:1000]) {
		t.Fatalf("frame within the buffer's capacity was not read into it (err %v)", err)
	}
}

func TestTrapdoorWireRoundtrip(t *testing.T) {
	c, _, _ := testClientIndex(t, core.ConstantURC)
	td, err := c.Trapdoor(core.Range{Lo: 13, Hi: 200})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := td.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.UnmarshalTrapdoor(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Round() != td.Round() || len(back.GGM) != len(td.GGM) {
		t.Fatalf("roundtrip mismatch: %d GGM tokens vs %d", len(back.GGM), len(td.GGM))
	}
	for i := range td.GGM {
		if back.GGM[i] != td.GGM[i] {
			t.Fatal("GGM token corrupted")
		}
	}
	// Stag-based trapdoors too.
	c2, _, _ := testClientIndex(t, core.LogarithmicURC)
	td2, err := c2.Trapdoor(core.Range{Lo: 13, Hi: 200})
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := td2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back2, err := core.UnmarshalTrapdoor(blob2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back2.Stags) != len(td2.Stags) {
		t.Fatal("stag count corrupted")
	}
	for i := range td2.Stags {
		if back2.Stags[i] != td2.Stags[i] {
			t.Fatal("stag corrupted")
		}
	}
	// Garbage rejected.
	for _, bad := range [][]byte{nil, {0}, {9, 0, 0, 0, 0, 1}, blob[:len(blob)-3]} {
		if _, err := core.UnmarshalTrapdoor(bad); err == nil {
			t.Error("garbage trapdoor accepted")
		}
	}
}

func TestResponseWireRoundtrip(t *testing.T) {
	resp := &core.Response{Groups: [][][]byte{
		{[]byte("abc"), []byte("")},
		{},
		{[]byte{1, 2, 3, 4, 5, 6, 7, 8}},
	}}
	blob, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.UnmarshalResponse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Groups) != 3 || back.Items() != resp.Items() {
		t.Fatalf("roundtrip: %d groups, %d items", len(back.Groups), back.Items())
	}
	if !bytes.Equal(back.Groups[0][0], []byte("abc")) {
		t.Error("payload corrupted")
	}
	for _, bad := range [][]byte{{1}, blob[:len(blob)-2], append(blob, 9)} {
		if _, err := core.UnmarshalResponse(bad); err == nil {
			t.Error("garbage response accepted")
		}
	}
}

// TestMetaWireSuite: the meta op's response ends in the served index's
// suite byte. A server sends it; a client reads it, refuses a response
// without it — the 11-byte answer of a server that predates suites — and
// refuses a suite it does not implement: its trapdoors would silently
// find nothing. The suite on the wire is the served index's own (core's
// defaultSuite table decides it at build time); the two kinds here have
// different ones.
func TestMetaWireSuite(t *testing.T) {
	seen := map[prf.Suite]bool{}
	for _, kind := range []core.Kind{core.ConstantBRC, core.LogarithmicBRC} {
		_, idx, _ := testClientIndex(t, kind)
		built, err := idx.MetaContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := built.Suite
		seen[want] = true
		resp, err := handleRequest(singleRegistry(idx), request{op: opMeta, name: DefaultIndex}, new([]byte))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) != metaLen || resp[metaLen-1] != byte(want) {
			t.Fatalf("%v: meta response % x, want %d bytes ending in suite %d", kind, resp, metaLen, want)
		}
		meta, err := parseMeta(resp)
		if err != nil || meta.Kind != kind || meta.Suite != want {
			t.Fatalf("%v: parsed %+v, %v", kind, meta, err)
		}
		if _, err := parseMeta(resp[:metaLen-1]); err == nil {
			t.Errorf("%v: the 11-byte meta answer without a suite byte was accepted", kind)
		}
		resp[metaLen-1] = prf.NumSuites
		if _, err := parseMeta(resp); !errors.Is(err, core.ErrCorruptIndex) {
			t.Errorf("%v: unimplemented suite %d in meta: err %v, want ErrCorruptIndex", kind, prf.NumSuites, err)
		}
		for _, n := range []int{0, metaLen - 2, metaLen + 1} {
			if _, err := parseMeta(make([]byte, n)); err == nil {
				t.Errorf("%d-byte meta response accepted", n)
			}
		}
	}
	if len(seen) != 2 {
		t.Errorf("both kinds were served at suite(s) %v: the byte was never seen to vary", seen)
	}
}
