package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"rsse/internal/obs"
)

// LatencySummary is the JSON face of an obs.Histogram, in microseconds:
// quantiles and max to bucket precision (~1.6%), the mean exact.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
}

// Summarize extracts the standard quantiles from h.
func Summarize(h *obs.Histogram) LatencySummary {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return LatencySummary{
		Count:  h.Count(),
		P50Us:  us(h.Quantile(0.50)),
		P95Us:  us(h.Quantile(0.95)),
		P99Us:  us(h.Quantile(0.99)),
		MaxUs:  us(h.Quantile(1)),
		MeanUs: us(h.Sum()) / float64(max(h.Count(), 1)),
	}
}

// PhaseReport is one phase's measured outcome.
type PhaseReport struct {
	Name        string          `json:"name"`
	Warmup      bool            `json:"warmup,omitempty"`
	TargetQPS   float64         `json:"target_qps,omitempty"`
	Connections int             `json:"connections"`
	InFlight    int             `json:"in_flight"`
	DurationMS  float64         `json:"duration_ms"`
	Requests    uint64          `json:"requests"`
	Batches     uint64          `json:"batches,omitempty"`
	Writes      uint64          `json:"writes,omitempty"`
	Errors      uint64          `json:"errors"`
	Shed        uint64          `json:"shed"`
	QPS         float64         `json:"qps"`
	Latency     LatencySummary  `json:"latency"`
	Leakage     LeakageCounters `json:"leakage"`
}

// RunReport is one workload spec's full result: every phase, plus the
// run-level figures. SustainedQPS and Latency describe the spec's
// capacity phases — non-warmup, unpaced, at the spec's own connections
// × in_flight ("sustain" in every builtin): requests over elapsed time
// and the merged latencies of those phases, or of all non-warmup phases
// when the spec has none. Never the best phase of the run.
type RunReport struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Phases       []PhaseReport  `json:"phases"`
	SustainedQPS float64        `json:"sustained_qps"`
	Latency      LatencySummary `json:"latency"`
}

// LoadReport is rsse-load's machine-readable output.
type LoadReport struct {
	Tool       string `json:"tool"` // "rsse-load"
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Scheme     string `json:"scheme"`
	DomainBits uint8  `json:"domain_bits"`

	Runs []RunReport `json:"runs"`

	// Notes carries free-form provenance lines (rsse-load -note, the
	// fault injector's tally) so the artifact explains itself.
	Notes []string `json:"notes,omitempty"`

	// ServerMetrics is the server-side view of the same run: the delta of
	// the server's /metrics families between the start and the end of the
	// run, keyed "family{labels}" (rsse-load -ops-addr). Counters are
	// true deltas; gauges carry their end-of-run value. Having both views
	// in one artifact is what lets CI assert that the client-observed
	// leakage (LeakageCounters) and the server-observed leakage agree.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
}

// NewLoadReport stamps the platform header.
func NewLoadReport(scheme string, bits uint8) *LoadReport {
	return &LoadReport{
		Tool:       "rsse-load",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Scheme:     scheme,
		DomainBits: bits,
	}
}

// WriteJSON writes the report as indented JSON.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Print renders the report as aligned text.
func (r *LoadReport) Print(w io.Writer) {
	fmt.Fprintf(w, "\nSustained load — scheme %s, 2^%d domain (%s %s/%s)\n",
		r.Scheme, r.DomainBits, r.GoVersion, r.GOOS, r.GOARCH)
	for _, run := range r.Runs {
		fmt.Fprintf(w, "  workload %-12s sustained %9.1f qps   p50 %7.0fµs  p99 %7.0fµs\n",
			run.Workload, run.SustainedQPS, run.Latency.P50Us, run.Latency.P99Us)
		for _, p := range run.Phases {
			tag := ""
			if p.Warmup {
				tag = " (warmup)"
			}
			fmt.Fprintf(w, "    %-10s %8.1f qps  p50 %7.0fµs  p95 %7.0fµs  p99 %7.0fµs  max %7.0fµs  err %d  shed %d%s\n",
				p.Name, p.QPS, p.Latency.P50Us, p.Latency.P95Us, p.Latency.P99Us, p.Latency.MaxUs, p.Errors, p.Shed, tag)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(r.ServerMetrics) > 0 {
		fmt.Fprintf(w, "  server view: %.0f requests, %.0f shed, %.0f leakage tokens, %.0f response items (%d series scraped)\n",
			r.ServerFamilyTotal("rsse_requests_total"),
			r.ServerFamilyTotal("rsse_requests_shed_total"),
			r.ServerFamilyTotal("rsse_server_leakage_tokens_total"),
			r.ServerFamilyTotal("rsse_server_leakage_response_items_total"),
			len(r.ServerMetrics))
	}
}

// ServerFamilyTotal sums every labeled series of one metric family in
// the embedded server-metrics delta (0 when absent). A series matches
// when it is exactly the family or the family plus a label set.
func (r *LoadReport) ServerFamilyTotal(family string) float64 {
	var sum float64
	for k, v := range r.ServerMetrics {
		if k == family || (len(k) > len(family) && k[:len(family)] == family && k[len(family)] == '{') {
			sum += v
		}
	}
	return sum
}

// ValidateReport checks that data is a structurally sound LoadReport:
// right tool tag, at least one run, a positive sustained_qps per run,
// internally consistent quantiles. rsse-load runs it over every report
// it writes: a collapsed serving path fails here on any machine.
func ValidateReport(data []byte) error {
	var r LoadReport
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("workload: parse report: %w", err)
	}
	if r.Tool != "rsse-load" {
		return fmt.Errorf("workload: tool %q, want rsse-load", r.Tool)
	}
	if r.GoVersion == "" || r.GOOS == "" || r.GOARCH == "" {
		return fmt.Errorf("workload: missing platform header")
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("workload: report has no runs")
	}
	for _, run := range r.Runs {
		if run.Workload == "" {
			return fmt.Errorf("workload: run with empty workload name")
		}
		if len(run.Phases) == 0 {
			return fmt.Errorf("workload: run %s has no phases", run.Workload)
		}
		if run.SustainedQPS <= 0 {
			return fmt.Errorf("workload: run %s sustained_qps %v <= 0", run.Workload, run.SustainedQPS)
		}
		if err := validSummary(run.Workload, run.Latency); err != nil {
			return err
		}
		for _, p := range run.Phases {
			if p.Requests > 0 {
				if p.Latency.Count == 0 {
					return fmt.Errorf("workload: run %s phase %s: %d requests but empty histogram", run.Workload, p.Name, p.Requests)
				}
				if err := validSummary(run.Workload+"/"+p.Name, p.Latency); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func validSummary(where string, l LatencySummary) error {
	if l.P50Us < 0 || l.P50Us > l.P95Us || l.P95Us > l.P99Us || l.P99Us > l.MaxUs {
		return fmt.Errorf("workload: %s: quantiles not monotone (p50 %v p95 %v p99 %v max %v)",
			where, l.P50Us, l.P95Us, l.P99Us, l.MaxUs)
	}
	return nil
}
