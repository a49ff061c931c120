package rsse_test

import (
	"context"
	"net"
	"sync"
	"testing"

	"rsse"
	"rsse/internal/core"
	"rsse/internal/transport"
)

// Every index, local or remote, answers the one query interface.
var (
	_ core.Source = (*core.Index)(nil)
	_ core.Source = (*transport.IndexHandle)(nil)
	_ core.Source = (*transport.ResilientHandle)(nil)
	_ core.Source = (*rsse.RemoteIndex)(nil)
)

// TestMultiIndexPublicAPI serves two named indexes from one process via
// the public Registry/Server/DialIndex surface and shuts down cleanly.
func TestMultiIndexPublicAPI(t *testing.T) {
	cA, indexA, tuplesA := testIndex(t, rsse.LogarithmicBRC, 31)
	cB, indexB, tuplesB := testIndex(t, rsse.LogarithmicSRC, 32)

	reg := rsse.NewRegistry()
	if err := reg.Register("nil", nil); err == nil {
		t.Fatal("nil index registered")
	}
	if err := reg.Register("alpha", indexA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("beta", indexB); err != nil {
		t.Fatal(err)
	}
	srv := rsse.NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	q := rsse.Range{Lo: 100, Hi: 900}
	var wg sync.WaitGroup
	check := func(name string, c *rsse.Client, tuples []rsse.Tuple) {
		defer wg.Done()
		remote, err := rsse.DialIndex("tcp", l.Addr().String(), name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		defer remote.Close()
		served, err := remote.ServedIndexes()
		if err != nil || len(served) != 2 {
			t.Errorf("%s: served = %v, %v", name, served, err)
			return
		}
		res, err := c.QueryContext(context.Background(), remote, q)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		if len(res.Matches) != len(oracle(tuples, q)) {
			t.Errorf("%s: %d matches, want %d", name, len(res.Matches), len(oracle(tuples, q)))
		}
	}
	wg.Add(2)
	go check("alpha", cA, tuplesA)
	go check("beta", cB, tuplesB)
	wg.Wait()

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
