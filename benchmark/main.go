// Command benchmark is the repository's one reproducible benchmark: five
// served workloads, each run in its own process, every answer checked
// against a plaintext oracle, end-to-end metrics from an untraced
// measured interval and a per-layer ledger from a separate traced pass.
// Metric names, units and regression bounds are fixed in BENCHMARK.json
// at the repository root; README.md in this directory explains them.
//
//	benchmark -workload narrow_zipf -seed 7 -seconds 10 -trace 0   one run (the driver's form)
//	benchmark [-runs N]                                            the whole set, N seeds each
//	benchmark -compare A.json B.json                               two set reports against the bounds
//	benchmark -ledger                                              where the time goes, from the last traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: the whole set, one child process per run)")
	seed := fs.Int64("seed", 7, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "measured interval in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: also run the traced pass and report the per-layer metrics")
	smoke := fs.Bool("smoke", false, "datasets ÷ 10, one set-up, short passes (tests)")
	runs := fs.Int("runs", 1, "set mode: untraced runs per workload, seeds seed..seed+runs-1")
	strict := fs.Bool("strict", false, "exit non-zero when the box was busy at the start (load average above nproc/2)")
	out := fs.String("out", "", "directory for traces and reports (default benchmark/out)")
	compare := fs.Bool("compare", false, "compare two set reports: -compare A.json B.json")
	showLedger := fs.Bool("ledger", false, "print the per-stage ledger of the traces in the output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reading BENCHMARK.json:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	base := benchDir()
	if *out == "" {
		*out = filepath.Join(base, "out")
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareReports(spec, fs.Arg(0), fs.Arg(1))
	case *showLedger:
		return ledgerFromTraces(spec, *out)
	case *workload == "":
		return runSet(spec, setConfig{seed: *seed, seconds: *seconds, runs: *runs, smoke: *smoke, strict: *strict, out: *out})
	}

	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		outDir: *out, workRoot: filepath.Join(base, "..", ".bench_build", "work"),
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err == nil {
		writeJSON(runPath(*out, cfg.workload, cfg.seed, cfg.trace), res)
	}
	if err := printRun(os.Stdout, spec, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	switch {
	case !res.Correct:
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed or disagreed with the oracle\n", res.Workload, res.Failed, res.Attempted)
		return 1
	case *strict && res.Env.Noisy:
		fmt.Fprintf(os.Stderr, "benchmark: load average %.2f at start exceeds nproc/2: not a baseline\n", res.Env.LoadAvg1)
		return 3
	}
	return 0
}

// benchDir is the benchmark's own directory relative to the working
// directory: "benchmark" from the checkout root, "." from inside it.
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "benchmark"
	}
	return "."
}

func runPath(out, workload string, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(out, fmt.Sprintf("run-%s-seed%d-trace%d.json", workload, seed, t))
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printRun prints every metric of the run as "workload metric value
// unit", then the one-line JSON result the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printRun(w io.Writer, spec *benchSpec, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}

	// Every metric that was measured is printed; the result object takes
	// the end-to-end ones from an untraced run and the per-layer ones from
	// a traced run, and each of those must have been measured.
	emit := func(specs []metricSpec, final bool) error {
		for _, ms := range specs {
			v, ok := res.Metrics[ms.Name]
			if !ok && !final {
				continue
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s was not measured", res.Workload, ms.Name)
			}
			note := ""
			if n, ok := res.Samples[ms.Name]; ok {
				note = fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Fprintf(w, "%s %s %.6g %s%s\n", res.Workload, ms.Name, v, ms.Unit, note)
			if final {
				line.Metrics[ms.Name] = value{v, ms.Unit}
			}
		}
		return nil
	}
	fmt.Fprintf(w, "# %s seed=%d interval=%.0fs; %s; nproc=%d GOMAXPROCS=%d load=%.2f noisy=%v\n",
		res.Workload, res.Seed, res.Seconds, res.Env.Load, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.LoadAvg1, res.Env.Noisy)
	if err := emit(spec.EndToEnd, !res.Traced); err != nil {
		return err
	}
	if err := emit(spec.PerLayer, res.Traced); err != nil {
		return err
	}
	if res.Traced {
		printLedger(w, res)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n%s ops_failed %d count\n", res.Workload, res.Attempted, res.Workload, res.Failed)
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}
