package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rsse"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// smokeRun runs one workload in-process in the -smoke configuration.
func smokeRun(t *testing.T, workload string, seed int64, seconds float64) *runResult {
	t.Helper()
	dir := t.TempDir()
	res, err := runWorkload(runConfig{
		workload: workload, seed: seed, seconds: seconds, trace: true, smoke: true,
		outDir: filepath.Join(dir, "out"), workRoot: filepath.Join(dir, "work"),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed or disagreed with the oracle", workload, res.Failed, res.Attempted)
	}
	return res
}

// TestSpecLimits checks BENCHMARK.json against the limits its readers
// enforce and against the workloads the program implements.
func TestSpecLimits(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	defs := workloads()
	if len(defs) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(defs))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != defs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, defs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error(`no end-to-end metric setup_s with unit "s" and better "lower"`)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
	}
}

// TestSmokeEveryMetricOnce runs every workload, traced, in the smoke
// configuration and checks what it prints: every metric BENCHMARK.json
// names exactly once per workload, a finite value, its unit, and a last
// line that is the driver's JSON object.
func TestSmokeEveryMetricOnce(t *testing.T) {
	spec := testSpec(t)
	for _, w := range spec.workloadNames() {
		res := smokeRun(t, w, 7, 1)
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			var buf bytes.Buffer
			if err := printRun(&buf, spec, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			printed := map[string]int{}
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) < 4 || f[0] != w {
					continue
				}
				v, err := strconv.ParseFloat(f[2], 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %q is not a finite value", w, line)
				}
				printed[f[1]+" "+f[3]]++
			}
			for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
				if n := printed[m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("%s traced=%v: %s [%s] printed %d times, want once", w, traced, m.Name, m.Unit, n)
				}
			}
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    *int64
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w, err)
			}
			final := spec.EndToEnd
			if traced {
				final = spec.PerLayer
			}
			if last.Correct == nil || !*last.Correct || last.Attempted < 1 || last.Failed == nil || len(last.Metrics) != len(final) {
				t.Errorf("%s traced=%v: result object %s", w, traced, lines[len(lines)-1])
			}
			for _, m := range final {
				if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: result object lacks %s [%s]", w, traced, m.Name, m.Unit)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, m.Name, res.Metrics[m.Name])
			}
		}
	}
}

// TestSameSeedSameInputs: the same seed yields the same op stream and
// bit-identical deterministic counts; another seed does not.
func TestSameSeedSameInputs(t *testing.T) {
	deterministic := []string{"transport.verified_wire_bytes_per_query", "index_bytes_per_tuple", "core.tokens_per_query", "core.false_positives_per_query"}
	a := smokeRun(t, "srci_filter", 5, 0.3)
	rsse.ResetSearchKernelCache()
	b := smokeRun(t, "srci_filter", 5, 0.3)
	c := smokeRun(t, "srci_filter", 6, 0.3)
	if a.StreamHash != b.StreamHash {
		t.Errorf("same seed, op-stream hashes %s and %s", a.StreamHash, b.StreamHash)
	}
	if a.StreamHash == c.StreamHash {
		t.Errorf("seeds 5 and 6 share the op-stream hash %s", a.StreamHash)
	}
	differs := false
	for _, m := range deterministic {
		if a.Metrics[m] != b.Metrics[m] {
			t.Errorf("same seed: %s is %v then %v", m, a.Metrics[m], b.Metrics[m])
		}
		differs = differs || a.Metrics[m] != c.Metrics[m]
	}
	if !differs {
		t.Error("seeds 5 and 6 agree on every deterministic count")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: stQuery, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: stSearchRemote, Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: stSearchRemote, Start: 20, End: 50}, // overlaps span 1: the union counts once
		{ID: 3, Parent: 0, Name: stCover, Start: 200, End: 210, Replica: true},
		{ID: 4, Parent: 1, Name: stSearchLocal, Start: 12, End: 20, Reported: true},
	}
	self := selfTimes(spans)
	for i, want := range []int64{100 - 40 - 10, 20 - 8, 30, 10, 8} {
		if self[i] != want {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want)
		}
	}
	rows, root := ledger(spans, 1)
	if root != 100 || len(rows) != 4 {
		t.Errorf("ledger: root %d, %d rows", root, len(rows))
	}
}

func TestOracles(t *testing.T) {
	snap := newSnapshot([]rsse.Tuple{{ID: 1, Value: 5}, {ID: 2, Value: 9}, {ID: 3, Value: 5}})
	o := &op{kind: opRead, ranges: []rsse.Range{{Lo: 5, Hi: 8}}}
	st := staticOracle{snap}
	if !st.check(0, o, [][]uint64{{3, 1}}) || st.check(0, o, [][]uint64{{1}}) || st.check(0, o, [][]uint64{{1, 2}}) {
		t.Error("static oracle")
	}
	d := newDynamicOracle()
	d.insert(1, 5)
	before := d.begin()
	if !d.check(before, o, [][]uint64{{}}) {
		t.Error("an unflushed insert must not be visible")
	}
	d.flushStarted()
	if !d.check(before, o, [][]uint64{{1}}) || !d.check(before, o, [][]uint64{{}}) {
		t.Error("a read overlapping a flush may see either state")
	}
	d.flushDone()
	d.delete(1)
	if d.check(d.begin(), o, [][]uint64{{}}) {
		t.Error("an unflushed delete must not be visible")
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, spreadOf string) string {
		rep := setReport{EndToEnd: map[string]map[string]summary{}, Hashes: map[string]string{}}
		for _, w := range spec.workloadNames() {
			rep.EndToEnd[w] = map[string]summary{}
			for _, m := range spec.EndToEnd {
				f := 1.0
				if s, ok := scale[m.Name]; ok {
					f = s
				}
				sum := summary{Unit: m.Unit, Median: 100 * f, Q1: 99 * f, Q3: 101 * f}
				if m.Name == spreadOf {
					sum.Q1, sum.Q3 = 50*f, 150*f
				}
				rep.EndToEnd[w][m.Name] = sum
			}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", nil, "")
	if code := compareReports(spec, base, write("same.json", nil, "")); code != 0 {
		t.Errorf("identical reports: exit %d", code)
	}
	if code := compareReports(spec, base, write("better.json", map[string]float64{"qps": 2, "rss_mb": 0.5}, "")); code != 0 {
		t.Errorf("an improvement: exit %d", code)
	}
	if code := compareReports(spec, base, write("slower.json", map[string]float64{"rss_mb": 1.5}, "")); code != 1 {
		t.Errorf("50%% more memory: exit %d, want 1", code)
	}
	if code := compareReports(spec, base, write("lower.json", map[string]float64{"qps": 0.5}, "")); code != 1 {
		t.Errorf("half the throughput: exit %d, want 1", code)
	}
	if code := compareReports(spec, base, write("wide.json", nil, "qps")); code != 1 {
		t.Errorf("a spread wider than the bound: exit %d, want 1 (unresolved)", code)
	}
}
