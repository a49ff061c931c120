package transport

import (
	"bytes"
	"context"
	"errors"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
)

// TestSoakSharedConn floods one shared Conn with hundreds of concurrent
// in-flight requests — far past the dispatcher's worker pool
// (connConcurrency) and queue (connQueue), so admission backpressure,
// lazy worker spawn and write coalescing all engage — while a fraction
// of the callers abandon their requests at random moments via context
// cancellation. Every response that does arrive must be byte-identical
// to a sequential oracle, a cancelled call must return the context's
// error, and the connection must stay usable afterwards. Run under
// -race (CI does), this is the bounded-dispatch soak of ISSUE 7.
func TestSoakSharedConn(t *testing.T) {
	t.Run("pooled", soakSharedConn)
}

func soakSharedConn(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicBRC)

	// Sequential oracle: precompute trapdoors and the exact response
	// bytes the server must produce for each.
	queries := []core.Range{
		{Lo: 0, Hi: 1023}, {Lo: 100, Hi: 600}, {Lo: 777, Hi: 777},
		{Lo: 3, Hi: 900}, {Lo: 512, Hi: 515}, {Lo: 0, Hi: 0},
	}
	var (
		traps []*core.Trapdoor
		wants [][]byte
	)
	for _, q := range queries {
		tr, err := c.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := idx.SearchContext(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := resp.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		traps = append(traps, tr)
		wants = append(wants, b)
	}

	// Serve over real TCP so the coalesced vectored writes hit an actual
	// socket.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := singleRegistry(idx)
	go func() {
		sc, err := l.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		_ = serveLoop(reg, sc, nil, nil, 0)
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	defer conn.Close()
	remote := conn.Default()

	const goroutines = 300
	const iters = 4
	var (
		wg        sync.WaitGroup
		ok        atomic.Int64
		cancelled atomic.Int64
		failures  atomic.Int64
	)
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := mrand.New(mrand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				k := rnd.Intn(len(traps))
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rnd.Intn(4) == 0 {
					// A quarter of the calls race a tight deadline; many
					// abandon their pending slot mid-flight.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rnd.Intn(1500))*time.Microsecond)
				}
				resp, err := remote.SearchContext(ctx, traps[k])
				cancel()
				switch {
				case err == nil:
					b, merr := resp.MarshalBinary()
					if merr != nil {
						errCh <- merr
						return
					}
					if !bytes.Equal(b, wants[k]) {
						failures.Add(1)
						t.Errorf("goroutine %d iter %d: response diverges from sequential oracle", g, it)
						return
					}
					ok.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					errCh <- err
					return
				}
				// Interleave fetches so small frames mix with result
				// groups inside coalesced write batches.
				if rnd.Intn(2) == 0 {
					tu := tuples[rnd.Intn(len(tuples))]
					cts, ferr := remote.FetchMany(context.Background(), []core.ID{tu.ID})
					if ferr != nil {
						errCh <- ferr
						return
					}
					if len(cts[0]) == 0 {
						t.Errorf("goroutine %d: fetch %d returned empty", g, tu.ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if failures.Load() > 0 {
		t.Fatalf("%d responses diverged", failures.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request completed successfully")
	}
	t.Logf("%d ok, %d cancelled", ok.Load(), cancelled.Load())

	// The connection must have survived the storm, late responses for
	// abandoned ids included.
	resp, err := remote.SearchContext(context.Background(), traps[0])
	if err != nil {
		t.Fatalf("post-soak search: %v", err)
	}
	b, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, wants[0]) {
		t.Fatal("post-soak response diverges from oracle")
	}
}
