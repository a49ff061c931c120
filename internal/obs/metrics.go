// Package obs is the serving process's observability surface: a
// dependency-free metrics registry (atomic counters, gauges and
// log-linear latency histograms, histogram.go) with Prometheus
// text-format exposition, an ops HTTP endpoint (/metrics, /healthz,
// /readyz, /debug/pprof), build-info stamping, and structured-logging
// setup for the CLIs.
//
// Design constraints, in order:
//
//  1. Zero allocations on the hot path. Incrementing a counter, moving
//     a gauge and recording a histogram sample are a handful of atomic
//     ops on pre-resolved metric pointers; name→metric resolution
//     (Counter, CounterVec.With, ...) happens once at setup and the
//     caller caches the result. An allocs guard pins this.
//  2. A leaf package: the registry, the histogram, the exposition format
//     and the scrape parser import the standard library and nothing else.
//  3. One process, one surface: the package-level Default registry is
//     what instrumented packages (transport, lsm, wal, shard) write to
//     and what rsse-server -ops exposes, mirroring the Prometheus
//     default-registerer model. Tests that need isolation create their
//     own Registry.
//
// Metric names follow Prometheus conventions (rsse_..._total counters,
// _seconds histograms, plain gauges). The leakage families
// (rsse_server_leakage_*) are first-class: they make the deployed
// leakage profile of each served scheme continuously measurable from
// the server side — the adversary's actual view — and directly
// comparable against the client-side workload.LeakageCounters.
//
// NOTE the trust model: everything this package exposes is the server's
// own observation, i.e. exactly the leakage the schemes already concede
// (token counts, result-group sizes, access pattern volume, timing).
// The ops port itself is an amplifier — histograms and pprof profiles
// give an attacker a high-resolution timing oracle — so it must only
// bind to operator-trusted networks (see ARCHITECTURE.md).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry instrumented packages write to
// and rsse-server -ops exposes.
var Default = NewRegistry()

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// expositionBounds are the coarse cumulative upper bounds (seconds) the
// fine-grained histogram aggregates into for Prometheus exposition: a
// 1-2.5-5 ladder from 10µs to 10s. Scrapers get ~20 le-buckets instead
// of 3776; the fine layout stays internal for exact quantiles.
var expositionBounds = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// metric kinds for exposition.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// family is one named metric family: a fixed label-key schema and the
// labeled children created through it.
type family struct {
	name      string
	help      string
	kind      string
	labelKeys []string

	mu       sync.RWMutex
	children map[string]*child // key: label values joined by \xff
	order    []string
}

// child is one labeled series of a family.
type child struct {
	labelValues []string
	counter     *Counter
	counterFn   atomic.Pointer[func() uint64] // CounterFunc series: read at scrape time
	gauge       *Gauge
	hist        *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// format. Families and children are created once at setup (get-or-create
// semantics, so independent packages may share a family); the returned
// metric pointers are what hot paths touch.
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// getFamily returns the named family, creating it on first use. A name
// reused with a different kind or label schema panics: that is a
// programming error no caller can meaningfully handle.
func (r *Registry) getFamily(name, help, kind string, labelKeys ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labelKeys) != len(labelKeys) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v (was %s%v)",
				name, kind, labelKeys, f.kind, f.labelKeys))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labelKeys: append([]string(nil), labelKeys...),
		children:  make(map[string]*child)}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// getChild returns the series for the given label values, creating it on
// first use.
func (f *family) getChild(values []string) *child {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d",
			f.name, len(f.labelKeys), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHist:
		c.hist = &Histogram{}
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter returns the unlabeled counter called name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, kindCounter).getChild(nil).counter
}

// CounterFunc registers an unlabeled counter whose value fn reports at
// scrape time — for a count its owner already keeps in its own
// atomics. The hot path is the owner's atomic add and nothing else.
// Registering a name twice keeps the first fn.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.getFamily(name, help, kindCounter).getChild(nil).counterFn.CompareAndSwap(nil, &fn)
}

// Gauge returns the unlabeled gauge called name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, kindGauge).getChild(nil).gauge
}

// Histogram returns the unlabeled histogram called name.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.getFamily(name, help, kindHist).getChild(nil).hist
}

// The labeled families: a counter, gauge or histogram per label-value
// tuple. Resolve children with With once and cache the result.
type (
	CounterVec   struct{ f *family }
	GaugeVec     struct{ f *family }
	HistogramVec struct{ f *family }
)

// CounterVec returns the labeled counter family called name.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.getFamily(name, help, kindCounter, labelKeys...)}
}

// With returns the series for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.getChild(labelValues).counter
}

// GaugeVec returns the labeled gauge family called name.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{r.getFamily(name, help, kindGauge, labelKeys...)}
}

// With returns the series for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.getChild(labelValues).gauge
}

// HistogramVec returns the labeled histogram family called name.
func (r *Registry) HistogramVec(name, help string, labelKeys ...string) *HistogramVec {
	return &HistogramVec{r.getFamily(name, help, kindHist, labelKeys...)}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.getChild(labelValues).hist
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4), families in registration order, children in creation
// order. Histograms aggregate their fine buckets into the coarse
// expositionBounds ladder.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.RUnlock()
	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	f.mu.RLock()
	keys := append([]string(nil), f.order...)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	if len(children) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range children {
		switch f.kind {
		case kindCounter:
			b.WriteString(f.name)
			writeLabels(b, f.labelKeys, c.labelValues, "")
			v := c.counter.Value()
			if fn := c.counterFn.Load(); fn != nil {
				v = (*fn)()
			}
			fmt.Fprintf(b, " %d\n", v)
		case kindGauge:
			b.WriteString(f.name)
			writeLabels(b, f.labelKeys, c.labelValues, "")
			fmt.Fprintf(b, " %d\n", c.gauge.Value())
		case kindHist:
			c.hist.render(b, f, c.labelValues)
		}
	}
}

// render writes one histogram series: cumulative le-buckets over the
// coarse ladder, then sum (seconds) and count.
func (h *Histogram) render(b *strings.Builder, f *family, labelValues []string) {
	var cum uint64
	fine := 0
	for _, bound := range expositionBounds {
		limit := uint64(bound * 1e9)
		for fine < NumBuckets && BucketMid(fine) <= limit {
			cum += h.counts[fine].Load()
			fine++
		}
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.labelKeys, labelValues, formatBound(bound))
		fmt.Fprintf(b, " %d\n", cum)
	}
	for ; fine < NumBuckets; fine++ {
		cum += h.counts[fine].Load()
	}
	b.WriteString(f.name)
	b.WriteString("_bucket")
	writeLabels(b, f.labelKeys, labelValues, "+Inf")
	fmt.Fprintf(b, " %d\n", cum)
	b.WriteString(f.name)
	b.WriteString("_sum")
	writeLabels(b, f.labelKeys, labelValues, "")
	fmt.Fprintf(b, " %g\n", float64(h.sum.Load())/1e9)
	b.WriteString(f.name)
	b.WriteString("_count")
	writeLabels(b, f.labelKeys, labelValues, "")
	fmt.Fprintf(b, " %d\n", h.count.Load())
}

// formatBound renders an le bound the way Prometheus clients do:
// shortest decimal form.
func formatBound(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// writeLabels renders {k1="v1",...} with an optional le bound appended;
// nothing when there are no labels and no bound.
func writeLabels(b *strings.Builder, keys, values []string, le string) {
	if len(keys) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Families lists the registered family names, sorted — handy for
// presence assertions in smoke tests.
func (r *Registry) Families() []string {
	r.mu.RLock()
	out := append([]string(nil), r.order...)
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}
