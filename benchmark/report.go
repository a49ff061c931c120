package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// setConfig is one run of the whole set.
type setConfig struct {
	seed    int64
	seconds float64
	runs    int
	smoke   bool
	strict  bool
	out     string
}

// summary is one metric of one workload over the runs of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// setReport is the machine-readable report of a set: what -compare
// reads, and what a later change is measured against.
type setReport struct {
	Env       environment                   `json:"environment"`
	Seeds     []int64                       `json:"seeds"`
	Seconds   float64                       `json:"seconds"`
	Noisy     bool                          `json:"noisy"`
	Correct   bool                          `json:"correct"`
	Attempted int64                         `json:"ops_attempted"`
	Failed    int64                         `json:"ops_failed"`
	EndToEnd  map[string]map[string]summary `json:"end_to_end"` // workload → metric
	// Ungated holds the e2e.* figures every untraced run also measures
	// (latency percentiles, CPU per op), summarised the same way; no
	// bound applies to them.
	Ungated  map[string]map[string]summary `json:"ungated"`
	PerLayer map[string]map[string]float64 `json:"per_layer"` // workload → metric, from the traced run
	Hashes   map[string]string             `json:"op_stream_hashes"`
	Stages   map[string][]stageCost        `json:"stages"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// method the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func summarize(unit string, values []float64) summary {
	q1, _, q3 := quartiles(values)
	return summary{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3}
}

// runSet runs every workload runs times untraced and once traced, each
// run a child process of its own, one after the other: the process-wide
// stag cache, metrics registry, heap and peak RSS start clean.
func runSet(spec *benchSpec, cfg setConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep := &setReport{
		Env: readEnvironment(), Seconds: cfg.seconds, Correct: true,
		EndToEnd: map[string]map[string]summary{}, Ungated: map[string]map[string]summary{},
		PerLayer: map[string]map[string]float64{},
		Hashes:   map[string]string{}, Stages: map[string][]stageCost{},
	}
	// The set's own runs keep the load average up, so only the reading
	// taken before the first of them says whether the box was busy.
	rep.Noisy = rep.Env.Noisy
	for r := 0; r < cfg.runs; r++ {
		rep.Seeds = append(rep.Seeds, cfg.seed+int64(r))
	}
	child := func(workload string, seed int64, traced bool) (*runResult, error) {
		args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", cfg.out, "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		blob, err := os.ReadFile(runPath(cfg.out, workload, seed, traced))
		if err != nil {
			return nil, fmt.Errorf("%s: %v (%v)", workload, runErr, err)
		}
		var res runResult
		if err := json.Unmarshal(blob, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}
	start := time.Now()
	for _, w := range spec.workloadNames() {
		values := map[string][]float64{}
		account := func(res *runResult) {
			rep.Correct = rep.Correct && res.Correct
			rep.Attempted += res.Attempted
			rep.Failed += res.Failed
		}
		for _, seed := range rep.Seeds {
			res, err := child(w, seed, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			account(res)
			for _, ms := range append(spec.EndToEnd, spec.PerLayer...) {
				if v, ok := res.Metrics[ms.Name]; ok {
					values[ms.Name] = append(values[ms.Name], v)
				}
			}
		}
		rep.EndToEnd[w], rep.Ungated[w] = map[string]summary{}, map[string]summary{}
		for _, ms := range spec.EndToEnd {
			rep.EndToEnd[w][ms.Name] = summarize(ms.Unit, values[ms.Name])
		}
		for _, ms := range spec.PerLayer {
			if len(values[ms.Name]) > 0 {
				rep.Ungated[w][ms.Name] = summarize(ms.Unit, values[ms.Name])
			}
		}
		res, err := child(w, cfg.seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		account(res)
		rep.PerLayer[w] = map[string]float64{}
		for _, ms := range spec.PerLayer {
			rep.PerLayer[w][ms.Name] = res.Metrics[ms.Name]
		}
		rep.Hashes[w] = res.StreamHash
		rep.Stages[w] = res.Stages
	}
	path := filepath.Join(cfg.out, "report.json")
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\n# set of %d run(s) per workload in %s; %s; report: %s\n", cfg.runs, time.Since(start).Round(time.Second), rep.Env.Load, path)
	for _, w := range spec.workloadNames() {
		for _, ms := range append(spec.EndToEnd, spec.PerLayer...) {
			s, ok := rep.EndToEnd[w][ms.Name]
			if !ok {
				if s, ok = rep.Ungated[w][ms.Name]; !ok {
					continue
				}
			}
			fmt.Printf("%s %s median %.6g %s  quartiles [%.6g, %.6g]  spread %.1f%%\n", w, ms.Name, s.Median, s.Unit, s.Q1, s.Q3, 100*s.spread())
		}
	}
	switch {
	case !rep.Correct:
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d ops failed or disagreed with the oracle\n", rep.Failed, rep.Attempted)
		return 1
	case rep.Noisy && cfg.strict:
		fmt.Fprintln(os.Stderr, "benchmark: the box was busy (load average above nproc/2) when the set started: not a baseline")
		return 3
	}
	return 0
}

// compareReports judges report B against report A row by row: every
// workload × end-to-end metric is ok, regressed (B's median worse than
// A's by more than the metric's bound) or unresolved (either side's
// run-to-run spread is wider than the bound, so the medians cannot tell).
func compareReports(spec *benchSpec, pathA, pathB string) int {
	load := func(path string) (*setReport, error) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r setReport
		return &r, json.Unmarshal(blob, &r)
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bad := 0
	for _, w := range spec.workloadNames() {
		for _, ms := range spec.EndToEnd {
			sa, sb := a.EndToEnd[w][ms.Name], b.EndToEnd[w][ms.Name]
			worse := ratio(sb.Median-sa.Median, sa.Median)
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(sa.spread(), sb.spread()) > ms.Bound:
				verdict = "unresolved"
				bad++
			case worse > ms.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Printf("%-14s %-22s A %-12.6g B %-12.6g %s  change %+6.1f%%  spread A %4.1f%% B %4.1f%%  bound %4.1f%%  %s\n",
				w, ms.Name, sa.Median, sb.Median, ms.Unit, 100*ratio(sb.Median-sa.Median, sa.Median),
				100*sa.spread(), 100*sb.spread(), 100*ms.Bound, verdict)
		}
		if a.Hashes[w] != b.Hashes[w] {
			fmt.Printf("%-14s op streams differ (%s vs %s): the reports were not taken on the same inputs\n", w, a.Hashes[w], b.Hashes[w])
			bad++
		}
	}
	if a.Noisy || b.Noisy {
		fmt.Println("note: at least one report was taken on a busy box (noisy: true)")
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// ledgerFromTraces prints, per workload, where an op's time goes
// according to the traces in dir, as the markdown the README carries.
func ledgerFromTraces(spec *benchSpec, dir string) int {
	found := 0
	for _, w := range spec.workloadNames() {
		blob, err := os.ReadFile(tracePath(dir, w))
		if err != nil {
			continue
		}
		var tf struct {
			Ops            int         `json:"ops"`
			Seed           int64       `json:"seed"`
			UntracedMeanNs float64     `json:"untraced_mean_ns"`
			TracedMeanNs   float64     `json:"traced_mean_ns"`
			Stages         []stageCost `json:"stages"`
		}
		if err := json.Unmarshal(blob, &tf); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		found++
		fmt.Printf("**%s** — %d ops, seed %d; untraced mean %.1f µs, traced mean %.1f µs\n\n", w, tf.Ops, tf.Seed, tf.UntracedMeanNs/1e3, tf.TracedMeanNs/1e3)
		fmt.Println("| stage | layer | self time per op | share of the op | calls |")
		fmt.Println("|---|---|---:|---:|---:|")
		for _, r := range tf.Stages {
			fmt.Printf("| `%s` | %s | %.2f µs | %.1f%% | %d |\n", r.Name, r.Layer, r.SelfNs/1e3, 100*r.Share, r.Calls)
		}
		fmt.Println()
	}
	if found == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no traces in %s; run with -trace 1 first\n", dir)
		return 1
	}
	return 0
}
