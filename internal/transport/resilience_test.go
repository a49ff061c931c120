package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/fault"
)

// pipeDial returns a dial function that serves idx over a fresh
// net.Pipe per call, optionally passing the client end through a
// fault injector. dials counts how many conns were created.
func pipeDial(t *testing.T, idx core.Source, in *fault.Injector, dials *atomic.Int64) func(network, addr string) (*Conn, error) {
	t.Helper()
	return func(network, addr string) (*Conn, error) {
		serverEnd, clientEnd := net.Pipe()
		go func() { _ = ServeConn(serverEnd, idx) }()
		t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
		var nc net.Conn = clientEnd
		if in != nil {
			nc = in.Wrap(nc)
		}
		if dials != nil {
			dials.Add(1)
		}
		return NewConn(nc), nil
	}
}

func waitDead(t *testing.T, c *Conn) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Dead() {
		if time.Now().After(deadline) {
			t.Fatal("conn never became dead")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadConnTypedError: every failure mode of a dead conn must be
// errors.Is-able as ErrConnDead — that is what retry logic keys on.
func TestDeadConnTypedError(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicBRC)

	t.Run("read loop died", func(t *testing.T) {
		conn := pipeServer(t, idx)
		conn.Close()
		waitDead(t, conn)
		if _, err := conn.Names(); !errors.Is(err, ErrConnDead) {
			t.Fatalf("err = %v, want ErrConnDead", err)
		}
		if err := conn.Err(); !errors.Is(err, ErrConnDead) {
			t.Fatalf("Err() = %v, want ErrConnDead", err)
		}
	})

	t.Run("in-flight request", func(t *testing.T) {
		serverEnd, clientEnd := net.Pipe()
		conn := NewConn(clientEnd)
		errc := make(chan error, 1)
		go func() {
			_, err := conn.Names()
			errc <- err
		}()
		// Swallow the request, then kill the conn under the waiter.
		buf := make([]byte, 64)
		serverEnd.Read(buf)
		serverEnd.Close()
		if err := <-errc; !errors.Is(err, ErrConnDead) {
			t.Fatalf("in-flight err = %v, want ErrConnDead", err)
		}
	})
}

// TestPoolEvictsDeadConn: the pool must never hand out a conn whose
// transport already died; it evicts and redials instead.
func TestPoolEvictsDeadConn(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicBRC)
	var dials atomic.Int64
	pool := NewPoolFunc("pipe", pipeDial(t, idx, nil, &dials))
	defer pool.Close()

	c1, err := pool.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Names(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	waitDead(t, c1)

	c2, err := pool.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("pool handed out the dead conn again")
	}
	if _, err := c2.Names(); err != nil {
		t.Fatalf("redialed conn: %v", err)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}

	// Evict is identity-checked: evicting the long-dead c1 must not
	// disturb the live replacement.
	pool.Evict("a", c1)
	c3, err := pool.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c2 {
		t.Fatal("stale Evict displaced the live conn")
	}

	// Evicting the live conn forces the next Get to dial fresh.
	pool.Evict("a", c2)
	c4, err := pool.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if c4 == c2 {
		t.Fatal("evicted conn still cached")
	}
}

// TestRedialerRetriesAcrossConnDeath: a scheduled mid-session conn
// kill must be invisible to the caller — the handle redials and the
// answer matches the fault-free one.
func TestRedialerRetriesAcrossConnDeath(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicBRC)
	// Conn 0 dies on its second write; conn 1 and later are clean.
	in := fault.New(fault.Plan{Seed: 11, Rules: []fault.Rule{
		{Conn: 0, Side: fault.Write, Action: fault.Close, AfterCalls: 2},
	}})
	var dials atomic.Int64
	pool := NewPoolFunc("pipe", pipeDial(t, idx, in, &dials))
	defer pool.Close()
	rd := NewRedialer(pool, "a", RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 1,
	})
	h := rd.Default()

	q := core.Range{Lo: 100, Hi: 300}
	res, err := c.QueryContext(context.Background(), h, q) // meta = write 1, search = write 2 (killed), retried
	if err != nil {
		t.Fatal(err)
	}
	want := exact(tuples, q)
	if len(res.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d", len(res.Matches), len(want))
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (one redial)", got)
	}
	if s := in.Stats(); s.Closes != 1 {
		t.Fatalf("injected closes = %d, want 1", s.Closes)
	}
}

// TestOverloadBacksOffWithoutFailover: ErrOverloaded means the server
// is alive; the handle must keep the conn (no redial, no failover)
// and just back off between attempts.
func TestOverloadBacksOffWithoutFailover(t *testing.T) {
	reg := NewRegistry()
	srv := drainServer(reg)
	var dials atomic.Int64
	pool := NewPoolFunc("pipe", func(network, addr string) (*Conn, error) {
		serverEnd, clientEnd := net.Pipe()
		go func() { _ = serveLoop(reg, serverEnd, srv, nil, 0) }()
		dials.Add(1)
		return NewConn(clientEnd), nil
	})
	defer pool.Close()
	rd := NewRedialer(pool, "a", RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1,
	})

	_, err := rd.Default().MetaContext(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 — overload must not trigger failover", got)
	}
}

// metaCountServer counts MetaContext calls and always fails them with a
// server-side error.
type metaCountServer struct{ calls atomic.Int64 }

func (s *metaCountServer) MetaContext(context.Context) (core.IndexMeta, error) {
	s.calls.Add(1)
	return core.IndexMeta{}, fmt.Errorf("synthetic server failure")
}

func (s *metaCountServer) SearchContext(context.Context, *core.Trapdoor) (*core.Response, error) {
	return nil, fmt.Errorf("unreachable")
}

func (s *metaCountServer) FetchMany(context.Context, []core.ID) ([][]byte, error) {
	return nil, fmt.Errorf("unreachable")
}

// TestServerErrorNotRetried: a server-reported error means the
// transport worked; retrying it would just repeat the failure.
func TestServerErrorNotRetried(t *testing.T) {
	srv := &metaCountServer{}
	var dials atomic.Int64
	pool := NewPoolFunc("pipe", pipeDial(t, srv, nil, &dials))
	defer pool.Close()
	rd := NewRedialer(pool, "a", RetryPolicy{
		MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1,
	})

	_, err := rd.Default().MetaContext(context.Background())
	if err == nil || errors.Is(err, ErrConnDead) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want plain server error", err)
	}
	if got := srv.calls.Load(); got != 1 {
		t.Fatalf("server saw %d meta calls, want 1 (no retry)", got)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
}

// TestBlackHoleRecoveredByOpTimeout: a black-holed conn never fails
// its read loop, so only the per-op deadline can detect it. The
// handle must time the attempt out, replace the conn, and succeed.
func TestBlackHoleRecoveredByOpTimeout(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicBRC)
	in := fault.New(fault.Plan{Seed: 5, Rules: []fault.Rule{
		{Conn: 0, Side: fault.Read, Action: fault.BlackHole},
	}})
	var dials atomic.Int64
	pool := NewPoolFunc("pipe", pipeDial(t, idx, in, &dials))
	defer pool.Close()
	rd := NewRedialer(pool, "a", RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		OpTimeout: 100 * time.Millisecond, Seed: 1,
	})
	h := rd.Default()

	q := core.Range{Lo: 0, Hi: 50}
	res, err := c.QueryContext(context.Background(), h, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := exact(tuples, q); len(res.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d", len(res.Matches), len(want))
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (black hole evicted once)", got)
	}
}

func sameResult(a, b *core.Result) bool {
	return reflect.DeepEqual(a.Matches, b.Matches) && reflect.DeepEqual(a.Raw, b.Raw)
}

// exchange is what a kill-point sweep cuts: one client-side exchange
// over h, returning what its caller would compare.
type exchange func(h core.Source) (any, error)

// queryExchange is one range query, compared by its matches and raw
// ids.
func queryExchange(c *core.Client, q core.Range) exchange {
	return func(h core.Source) (any, error) {
		res, err := c.QueryContext(context.Background(), h, q)
		if err != nil {
			return nil, err
		}
		return [2][]core.ID{res.Matches, res.Raw}, nil
	}
}

// batchExchange is one QueryBatch, compared by every range's matches
// and raw ids.
func batchExchange(c *core.Client, ranges []core.Range) exchange {
	return func(h core.Source) (any, error) {
		br, err := c.QueryBatchContext(context.Background(), h, ranges)
		if err != nil {
			return nil, err
		}
		out := make([][2][]core.ID, len(br.Results))
		for i, res := range br.Results {
			out[i] = [2][]core.ID{res.Matches, res.Raw}
		}
		return out, nil
	}
}

// measureExchange runs ex once fault-free and returns its result plus
// the total server→client byte count — the sweep range for the
// kill-point test.
func measureExchange(t *testing.T, idx core.Source, ex exchange) (any, int64) {
	t.Helper()
	in := fault.New(fault.Plan{Seed: 1})
	conn, err := pipeDial(t, idx, in, nil)("pipe", "a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := ex(conn.Default())
	if err != nil {
		t.Fatal(err)
	}
	return got, in.Stats().BytesRead
}

// TestKillPointFrameOffsets severs the server→client stream at every
// byte offset of a recorded exchange — the transport mirror of the
// WAL torn-tail sweep. At each offset the bare client must return
// either the byte-identical result or a typed ErrConnDead, never a
// wrong answer; the resilient client must always recover the
// byte-identical result.
//
// Four exchanges are swept: a one-round Logarithmic-BRC query (meta +
// search), an SRC-i query whose fetch round is one fetch-many frame
// (every byte of its count, length words and ciphertexts is a cut
// point, so the filter never runs over a torn frame), an SRC-i query
// whose raw ids span two pipelined fetch-many frames, and a 40-range
// QueryBatch, whose round is one search frame answering the whole
// deduplicated trapdoor. The last two are several times longer, so they
// are cut at every 11th byte, a stride coprime to every field width in
// the frames.
func TestKillPointFrameOffsets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   core.Kind
		q      core.Range
		batch  int // > 0: the exchange is a QueryBatch of this many ranges, not a query of q
		step   int64
		op     byte // the exchange must carry frames requests of op
		frames int
	}{
		{"search", core.LogarithmicBRC, core.Range{Lo: 700, Hi: 740}, 0, 1, opFetchMany, 0},
		{"fetch-many", core.LogarithmicSRCi, core.Range{Lo: 700, Hi: 740}, 0, 1, opFetchMany, 1},
		{"pipelined fetch-many", core.LogarithmicSRCi, core.Range{Lo: 0, Hi: 1023}, 0, 11, opFetchMany, 2},
		{"batch", core.LogarithmicBRC, core.Range{}, 40, 11, opSearch, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, idx, _ := testClientIndex(t, tc.kind)
			ex := queryExchange(c, tc.q)
			if tc.batch > 0 {
				ex = batchExchange(c, batchRanges(tc.batch))
			}
			frames0 := tm.requests[tc.op].Value()
			oracle, total := measureExchange(t, idx, ex)
			if total == 0 {
				t.Fatal("measured zero exchange bytes")
			}
			if got := int(tm.requests[tc.op].Value() - frames0); got != tc.frames {
				t.Fatalf("exchange carried %d %s frames, the sweep wants %d", got, opLabel[tc.op], tc.frames)
			}
			killPointSweep(t, idx, ex, oracle, total, tc.step)
		})
	}
}

func killPointSweep(t *testing.T, idx core.Source, ex exchange, oracle any, total, step int64) {
	for off := int64(0); off <= total; off += step {
		in := fault.New(fault.Plan{Seed: 1, Rules: []fault.Rule{
			{Conn: 0, Side: fault.Read, Action: fault.Truncate, AtByte: off},
		}})

		// Bare conn: correct or typed death — never silent corruption.
		conn, err := pipeDial(t, idx, in, nil)("pipe", "a")
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex(conn.Default())
		if err != nil {
			if !errors.Is(err, ErrConnDead) {
				t.Fatalf("offset %d/%d: err = %v, want ErrConnDead", off, total, err)
			}
		} else if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("offset %d/%d: result differs from oracle", off, total)
		}
		conn.Close()

		// Resilient client: conn 0 truncates at off, later conns are
		// clean; the caller must always see the oracle's bytes.
		pool := NewPoolFunc("pipe", pipeDial(t, idx, in, nil))
		rd := NewRedialer(pool, "a", RetryPolicy{
			MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond, Seed: off + 1,
		})
		got, err = ex(rd.Default())
		if err != nil {
			t.Fatalf("offset %d/%d: resilient exchange failed: %v", off, total, err)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("offset %d/%d: resilient result differs from oracle", off, total)
		}
		pool.Close()
	}
}
