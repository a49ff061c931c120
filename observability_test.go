package rsse_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"rsse"
	"rsse/internal/obs"
)

// TestObservabilityEndToEnd runs the full ops story in-process: a query
// server with an ops endpoint beside it, client traffic, and the
// scrape-delta cross-check the load harness relies on — the server's
// own leakage accounting must agree exactly with the client-observed
// query stats, and /readyz must flip to 503 when draining begins.
func TestObservabilityEndToEnd(t *testing.T) {
	client, index, _ := testIndex(t, rsse.LogarithmicBRC, 77)
	reg := rsse.NewRegistry()
	const name = "obs-e2e"
	if err := reg.Register(name, index); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	srv := rsse.NewServer(reg)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	ready := obs.NewReadiness()
	opsAddr, stopOps, err := obs.Serve("127.0.0.1:0", obs.Default, ready)
	must(t, err)
	defer stopOps()

	readyzStatus := func() int {
		resp, err := http.Get(fmt.Sprintf("http://%s/readyz", opsAddr))
		must(t, err)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := readyzStatus(); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", got)
	}
	ready.SetReady(true)
	if got := readyzStatus(); got != http.StatusOK {
		t.Errorf("/readyz while serving = %d, want 200", got)
	}

	before, err := obs.Scrape(opsAddr)
	must(t, err)

	remote, err := rsse.DialIndex("tcp", l.Addr().String(), name)
	must(t, err)
	var wantQueries, wantTokens, wantItems uint64
	for i := 0; i < 16; i++ {
		lo := uint64(i * 60)
		res, err := client.QueryContext(context.Background(), remote, rsse.Range{Lo: lo, Hi: lo + 50})
		must(t, err)
		wantQueries++
		wantTokens += uint64(res.Stats.Tokens)
		wantItems += uint64(res.Stats.ResponseItems)
	}
	if err := remote.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := obs.Scrape(opsAddr)
	must(t, err)
	delta := obs.Delta(before, after)

	// The server's leakage accounting must agree with the client's own
	// query stats — same protocol messages, counted from the two ends.
	series := func(family string) float64 {
		return delta[fmt.Sprintf("%s{index=%q}", family, name)]
	}
	if got := series("rsse_index_queries_total"); got != float64(wantQueries) {
		t.Errorf("server queries = %v, client issued %d", got, wantQueries)
	}
	if got := series("rsse_server_leakage_tokens_total"); got != float64(wantTokens) {
		t.Errorf("server leakage tokens = %v, client sent %d", got, wantTokens)
	}
	if got := series("rsse_server_leakage_response_items_total"); got != float64(wantItems) {
		t.Errorf("server leakage response items = %v, client saw %d", got, wantItems)
	}
	if got := delta[`rsse_requests_total{op="search"}`]; got < float64(wantQueries) {
		t.Errorf("rsse_requests_total{op=search} delta = %v, want >= %d", got, wantQueries)
	}

	// The derived-state stag cache is on the same surface: every token of
	// this scheme is one stag lookup, a hit or a miss, and an admission is
	// a kind of miss.
	if got := delta["rsse_stag_cache_hits_total"] + delta["rsse_stag_cache_misses_total"]; got != float64(wantTokens) {
		t.Errorf("stag cache hits+misses delta = %v, client sent %d tokens", got, wantTokens)
	}
	if _, ok := after["rsse_stag_cache_admissions_total"]; !ok {
		t.Error("rsse_stag_cache_admissions_total missing from /metrics")
	} else if adm, miss := delta["rsse_stag_cache_admissions_total"], delta["rsse_stag_cache_misses_total"]; adm > miss {
		t.Errorf("stag cache admissions delta %v exceeds misses delta %v", adm, miss)
	}

	// Graceful shutdown: readiness flips first, then the drain.
	ready.SetReady(false)
	if got := readyzStatus(); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}
