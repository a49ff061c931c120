package transport

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/dataset"
)

// TestRegistryChurnUnderLoad hammers a served registry with queries
// while another goroutine continuously deregisters and lazily
// re-registers the same names — the shard-migration / rolling-restart
// pattern. In-flight requests racing the churn must never panic, corrupt
// the framing, or kill the connection: every request either succeeds or
// fails cleanly with a server-reported error, and the connection stays
// usable afterwards.
func TestRegistryChurnUnderLoad(t *testing.T) {
	c, err := core.NewClient(core.LogarithmicBRC, cover.Domain{Bits: 8}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuples := dataset.Uniform(200, 8, 17)
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Range{Lo: 0, Hi: 255}
	wantMatches := len(exact(tuples, q))

	const names = 4
	reg := NewRegistry()
	for i := 0; i < names; i++ {
		if err := reg.Register(fmt.Sprintf("shard-%d", i), idx); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })

	conn, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Churner: tear names down and bring them back lazily, as fast as
	// possible, for the duration of the query load.
	stop := make(chan struct{})
	var churns atomic.Int64
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("shard-%d", i%names)
			reg.Deregister(name)
			// A beat with the name absent, so requests really race the gap.
			if i%3 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			if err := reg.RegisterLazy(name, func() (core.Source, error) { return idx, nil }); err != nil {
				t.Errorf("re-register %s: %v", name, err)
				return
			}
			churns.Add(1)
		}
	}()

	const workers = 8
	var ok, unknown atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("shard-%d", (w+i)%names)
				h := conn.Index(name)
				trap, err := c.Trapdoor(q)
				if err != nil {
					t.Errorf("trapdoor: %v", err)
					return
				}
				resp, err := h.SearchContext(context.Background(), trap)
				switch {
				case err == nil:
					if got := resp.Items(); got != wantMatches {
						t.Errorf("churned search returned %d items, want %d", got, wantMatches)
						return
					}
					ok.Add(1)
				case strings.Contains(err.Error(), "unknown index"):
					// The request fell into a deregistration gap: a clean,
					// server-reported error, not a transport failure.
					unknown.Add(1)
				default:
					t.Errorf("request failed hard (frame corruption?): %v", err)
					return
				}
				// Interleave Meta and Fetch so multiple op types churn too.
				if i%5 == 0 {
					if _, err := h.MetaContext(context.Background()); err != nil && !strings.Contains(err.Error(), "unknown index") {
						t.Errorf("meta failed hard: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()

	if churns.Load() == 0 {
		t.Fatal("churner never ran")
	}
	if ok.Load() == 0 {
		t.Fatal("no query ever succeeded under churn")
	}
	t.Logf("churn: %d re-registrations, %d queries ok, %d hit the gap",
		churns.Load(), ok.Load(), unknown.Load())

	// The connection survived: a fresh request on a (re-registered) name
	// must still succeed, proving the stream was never corrupted.
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("shard-%d", i)
		trap, err := c.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Index(name).SearchContext(context.Background(), trap); err != nil {
			t.Fatalf("post-churn query on %s: %v", name, err)
		}
	}
	names2, err := conn.Names()
	if err != nil || len(names2) != names {
		t.Fatalf("post-churn Names = %v, %v", names2, err)
	}
}

// TestRegistryChurnStatsSafe runs Stats and Lookup concurrently with
// churn — the operator-observability path must also never block on or
// break the data path.
func TestRegistryChurnStatsSafe(t *testing.T) {
	idx := lazyTestIndex(t)
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Deregister("x")
			_ = reg.RegisterLazy("x", func() (core.Source, error) { return idx, nil })
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range reg.Stats() {
				_ = st.Loaded
			}
			_ = reg.Names()
			_ = reg.Len()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s, _, err := reg.lookupServing("x"); err == nil && s == nil {
				t.Error("lookupServing returned nil server without error")
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}
