package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Get-or-create: same name resolves to the same metric.
	if r.Counter("t_total", "test counter") != c {
		t.Fatalf("re-registering a counter returned a different instance")
	}
	g := r.Gauge("t_gauge", "test gauge")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestVecChildrenIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "per-op", "op")
	a, b := v.With("search"), v.With("fetch")
	a.Inc()
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Fatalf("vec children not independent: %d, %d", a.Value(), b.Value())
	}
	if v.With("search") != a {
		t.Fatalf("With returned a different child for the same labels")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "conflict")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 480*time.Microsecond || p50 > 520*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 960*time.Microsecond || p99 > 1020*time.Microsecond {
		t.Fatalf("p99 = %v, want ~990µs", p99)
	}
}

// TestHotPathAllocs pins the instrumentation hot path at zero
// allocations: counters, gauges and histogram Record must be free to
// call per-request. A regression here taxes every serving layer.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot_gauge", "")
	h := r.Histogram("hot_seconds", "")
	vc := r.CounterVec("hot_vec_total", "", "op").With("search")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		g.Set(12)
		h.Record(137 * time.Microsecond)
		vc.Inc()
	}); n != 0 {
		t.Fatalf("hot-path instrumentation allocates %v times per op, want 0", n)
	}
}

// TestVecWithAllocs pins the single-label With lookup too: handleRequest
// resolves the writable store's counter per update, so even the resolve
// path must stay allocation-free for one label.
func TestVecWithAllocs(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("with_total", "", "name")
	v.With("store") // create outside the measured loop
	if n := testing.AllocsPerRun(1000, func() {
		v.With("store").Inc()
	}); n != 0 {
		t.Fatalf("single-label With allocates %v times per op, want 0", n)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a").Add(3)
	var owned atomic.Uint64 // a count another package keeps for itself
	r.CounterFunc("d_total", "counts d, read at scrape time", owned.Load)
	owned.Store(7)
	r.GaugeVec("b", "gauge b", "shard").With("s0").Set(-2)
	h := r.Histogram("c_seconds", "hist c")
	h.Record(30 * time.Microsecond) // ≤ 50µs bound
	h.Record(40 * time.Millisecond) // ≤ 50ms bound
	h.Record(30 * time.Second)      // beyond the ladder → only +Inf

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 3",
		"# TYPE d_total counter",
		"d_total 7",
		"# TYPE b gauge",
		`b{shard="s0"} -2`,
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="2.5e-05"} 0`,
		`c_seconds_bucket{le="5e-05"} 1`,
		`c_seconds_bucket{le="+Inf"} 3`,
		"c_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// le-bucket monotonicity at the boundaries that matter here.
	if !strings.Contains(text, `c_seconds_bucket{le="0.05"} 2`) {
		t.Fatalf("40ms sample not cumulative at le=0.05:\n%s", text)
	}

	// Round-trip through the scrape parser.
	parsed, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if parsed["a_total"] != 3 {
		t.Fatalf("parsed a_total = %v", parsed["a_total"])
	}
	if parsed[`b{shard="s0"}`] != -2 {
		t.Fatalf("parsed gauge = %v", parsed[`b{shard="s0"}`])
	}
	if parsed["c_seconds_count"] != 3 {
		t.Fatalf("parsed histogram count = %v", parsed["c_seconds_count"])
	}
}

func TestDelta(t *testing.T) {
	before := map[string]float64{"a_total": 10, "g": 5, "h_count": 2}
	after := map[string]float64{"a_total": 17, "g": 3, "h_count": 2, "new_total": 4}
	d := Delta(before, after)
	if d["a_total"] != 7 {
		t.Fatalf("counter delta = %v, want 7", d["a_total"])
	}
	if d["g"] != 3 {
		t.Fatalf("gauge must carry its after value, got %v", d["g"])
	}
	if d["h_count"] != 0 {
		t.Fatalf("unchanged counter delta = %v, want 0", d["h_count"])
	}
	if d["new_total"] != 4 {
		t.Fatalf("new counter must count from zero, got %v", d["new_total"])
	}
}

func TestOpsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("rsse_requests_total", "").Add(9)
	RegisterBuildInfo(r)
	ready := NewReadiness()
	srv := httptest.NewServer(Handler(r, ready))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// Not ready until the server says so — and 503 again while draining.
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz before SetReady = %d, want 503", code)
	}
	ready.SetReady(true)
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz after SetReady = %d, want 200", code)
	}
	ready.SetReady(false)
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz while draining = %d, want 503", code)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "rsse_requests_total 9") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "rsse_build_info{version=") {
		t.Fatalf("/metrics missing rsse_build_info:\n%s", body)
	}

	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	addr, shutdown, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Scrape(addr)
	if err != nil {
		t.Fatal(err)
	}
	if m["x_total"] != 1 {
		t.Fatalf("scraped x_total = %v", m["x_total"])
	}
	shutdown()
	if _, err := Scrape(addr); err == nil {
		t.Fatalf("scrape succeeded after shutdown")
	}
}
