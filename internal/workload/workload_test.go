package workload

import (
	"context"
	"encoding/json"
	"math"
	mrand "math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/dataset"
)

func TestHistogramExactBelow64(t *testing.T) {
	var h Histogram
	for v := 0; v < 64; v++ {
		h.Record(time.Duration(v))
	}
	if h.Count() != 64 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Below 64ns every value has its own bucket, so quantiles are exact.
	if got := h.Quantile(0.5); got != 32 {
		t.Fatalf("p50 = %v, want 32", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rnd := mrand.New(mrand.NewSource(1))
	samples := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		// Log-uniform over [1µs, 100ms] — spans 17 octaves.
		v := time.Duration(math.Exp(rnd.Float64()*math.Log(1e5)) * 1e3)
		h.Record(v)
		samples = append(samples, float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		// Exact quantile by selection.
		k := int(q * float64(len(samples)))
		exact := quickSelect(append([]float64(nil), samples...), k)
		if rel := math.Abs(got-exact) / exact; rel > 0.02 {
			t.Errorf("q%.3f: hist %v exact %v (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func quickSelect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	rnd := mrand.New(mrand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := time.Duration(rnd.Intn(1e7))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() || a.Mean() != all.Mean() {
		t.Fatal("merged histogram diverges from directly-recorded one")
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("q%v: merged %v direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistogramRecordNoAlloc(t *testing.T) {
	var h Histogram
	n := testing.AllocsPerRun(1000, func() {
		h.Record(12345 * time.Nanosecond)
	})
	if n != 0 {
		t.Fatalf("Record allocates %v per op", n)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, fam := range BuiltinNames() {
		spec, err := Builtin(fam)
		if err != nil {
			t.Fatal(err)
		}
		g1, err := NewGenerator(spec, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := NewGenerator(spec, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewGenerator(spec, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		diverged := false
		for i := 0; i < 2000; i++ {
			a, b, c := g1.Next(), g2.Next(), other.Next()
			if len(a.Ranges) != len(b.Ranges) {
				t.Fatalf("%s: op %d batch sizes differ", fam, i)
			}
			for j := range a.Ranges {
				if a.Ranges[j] != b.Ranges[j] {
					t.Fatalf("%s: op %d range %d differs between same-seed generators", fam, i, j)
				}
				if a.Ranges[j].Hi < a.Ranges[j].Lo || a.Ranges[j].Hi >= 1<<16 {
					t.Fatalf("%s: op %d range %d out of domain: %+v", fam, i, j, a.Ranges[j])
				}
			}
			if len(a.Ranges) != len(c.Ranges) || a.Ranges[0] != c.Ranges[0] {
				diverged = true
			}
		}
		if !diverged {
			t.Fatalf("%s: distinct slots produced identical streams", fam)
		}
	}
}

func TestGeneratorBatchMix(t *testing.T) {
	spec, err := Builtin(dataset.FamilyHotspot)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if len(op.Ranges) > 1 {
			if len(op.Ranges) != spec.BatchSize {
				t.Fatalf("batch of %d, want %d", len(op.Ranges), spec.BatchSize)
			}
			batches++
		}
	}
	frac := float64(batches) / 5000
	if frac < spec.BatchFraction*0.7 || frac > spec.BatchFraction*1.3 {
		t.Fatalf("batch fraction %.3f far from configured %.2f", frac, spec.BatchFraction)
	}
}

// TestGeneratorWriteMix: with write_fraction set, the stream mixes
// writes near the configured rate; deletes only ever name tuples the
// same slot put earlier; IDs are unique within the slot and carry the
// slot tag, so concurrent slots cannot collide on the shared store.
func TestGeneratorWriteMix(t *testing.T) {
	spec, err := Builtin(dataset.FamilyZipf)
	if err != nil {
		t.Fatal(err)
	}
	spec.WriteFraction = 0.3
	const slot = 5
	g, err := NewGenerator(spec, 16, slot)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(spec, 16, slot)
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]uint64{} // id -> value of not-yet-deleted puts
	writes, dels := 0, 0
	for i := 0; i < 5000; i++ {
		op, op2 := g.Next(), g2.Next()
		if (op.Write == nil) != (op2.Write == nil) {
			t.Fatalf("op %d: same-seed generators disagree on op kind", i)
		}
		if op.Write == nil {
			if len(op.Ranges) == 0 {
				t.Fatalf("op %d: neither query nor write", i)
			}
			continue
		}
		w := op.Write
		if op2.Write.ID != w.ID || op2.Write.Del != w.Del || op2.Write.Value != w.Value {
			t.Fatalf("op %d: same-seed generators diverge on write", i)
		}
		writes++
		if w.Del {
			dels++
			v, ok := live[w.ID]
			if !ok {
				t.Fatalf("op %d: delete of id %d never put (or already deleted)", i, w.ID)
			}
			if v != w.Value {
				t.Fatalf("op %d: delete of id %d with value %d, put with %d", i, w.ID, w.Value, v)
			}
			delete(live, w.ID)
			continue
		}
		if w.ID>>32 != slot {
			t.Fatalf("op %d: put id %#x missing slot tag %d", i, w.ID, slot)
		}
		if _, dup := live[w.ID]; dup {
			t.Fatalf("op %d: duplicate put id %d", i, w.ID)
		}
		if len(w.Payload) == 0 {
			t.Fatalf("op %d: put with empty payload", i)
		}
		live[w.ID] = w.Value
	}
	frac := float64(writes) / 5000
	if frac < spec.WriteFraction*0.7 || frac > spec.WriteFraction*1.3 {
		t.Fatalf("write fraction %.3f far from configured %.2f", frac, spec.WriteFraction)
	}
	if dels == 0 {
		t.Fatal("write stream produced no deletes")
	}
}

func TestSpecValidate(t *testing.T) {
	good, err := Builtin("zipf")
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Keys.Family = "nope" },
		func(s *Spec) { s.Sizes.Dist = "gauss" },
		func(s *Spec) { s.Sizes = SizeDist{Dist: "uniform", Min: 9, Max: 3} },
		func(s *Spec) { s.BatchFraction = 1.5 },
		func(s *Spec) { s.BatchFraction = 0.5; s.BatchSize = 0 },
		func(s *Spec) { s.WriteFraction = -0.1 },
		func(s *Spec) { s.WriteFraction = 1.01 },
		func(s *Spec) { s.Connections = 0 },
		func(s *Spec) { s.Phases = nil },
		func(s *Spec) { s.Phases[0].DurationMS = 0 },
		func(s *Spec) { s.Phases[0].TargetQPS = -1 },
	}
	for i, mutate := range bads {
		s, _ := Builtin("zipf")
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Round-trip through JSON.
	data, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != good.Name || len(back.Phases) != len(good.Phases) {
		t.Fatal("spec JSON round-trip lost fields")
	}
	if _, err := ParseSpec([]byte(`{"name":""}`)); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// fakeSession counts ops and injects a fixed service time.
type fakeSession struct {
	delay  time.Duration
	ops    atomic.Uint64
	closed atomic.Bool
}

func (f *fakeSession) Do(ctx context.Context, op *Op) (Metrics, error) {
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.ops.Add(1)
	return Metrics{Tokens: uint64(len(op.Ranges)), ResponseItems: 3}, nil
}

func (f *fakeSession) Close() error { f.closed.Store(true); return nil }

func TestRunnerUnpacedAndPaced(t *testing.T) {
	spec := &Spec{
		Name:        "fake",
		Seed:        1,
		Keys:        dataset.Distribution{Family: dataset.FamilyUniform},
		Sizes:       SizeDist{Dist: "fixed", Min: 4},
		Connections: 2,
		InFlight:    2,
		Phases: []Phase{
			{Name: "warmup", Warmup: true, DurationMS: 60},
			{Name: "sustain", DurationMS: 250},
			{Name: "paced", DurationMS: 300, TargetQPS: 400},
		},
	}
	var sessions []*fakeSession
	r := &Runner{
		Spec: spec,
		Bits: 16,
		NewSession: func() (Session, error) {
			s := &fakeSession{delay: 200 * time.Microsecond}
			sessions = append(sessions, s)
			return s, nil
		},
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	for _, s := range sessions {
		if !s.closed.Load() {
			t.Fatal("session not closed")
		}
	}
	sustain, paced := rep.Phases[1], rep.Phases[2]
	if sustain.Requests == 0 || sustain.Latency.Count != sustain.Requests {
		t.Fatalf("sustain: %d requests, %d samples", sustain.Requests, sustain.Latency.Count)
	}
	// 4 slots × ~5000 op/s each ≈ 20k qps capacity; paced at 400 must
	// come in near target, far below capacity.
	if paced.QPS > 600 || paced.QPS < 200 {
		t.Fatalf("paced qps %.1f far from target 400", paced.QPS)
	}
	if rep.SustainedQPS < paced.QPS {
		t.Fatalf("sustained %.1f below paced %.1f", rep.SustainedQPS, paced.QPS)
	}
	if rep.Latency.Count != sustain.Latency.Count+paced.Latency.Count {
		t.Fatal("steady rollup does not cover non-warmup phases")
	}
	if sustain.Leakage.Tokens == 0 || sustain.Leakage.ResponseItems != 3*sustain.Requests {
		t.Fatalf("leakage accounting wrong: %+v", sustain.Leakage)
	}
}

// TestRunnerCountsWrites: write ops land in the phase report's Writes
// column, separate from Batches.
func TestRunnerCountsWrites(t *testing.T) {
	spec := &Spec{
		Name:          "mixed",
		Seed:          1,
		Keys:          dataset.Distribution{Family: dataset.FamilyUniform},
		Sizes:         SizeDist{Dist: "fixed", Min: 4},
		WriteFraction: 0.5,
		Connections:   1,
		InFlight:      2,
		Phases:        []Phase{{Name: "mix", DurationMS: 150}},
	}
	r := &Runner{
		Spec:       spec,
		Bits:       16,
		NewSession: func() (Session, error) { return &fakeSession{delay: 100 * time.Microsecond}, nil },
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Phases[0]
	if p.Writes == 0 {
		t.Fatalf("no writes counted in %d requests at write_fraction 0.5", p.Requests)
	}
	if p.Writes >= p.Requests {
		t.Fatalf("writes %d should be a strict subset of requests %d", p.Writes, p.Requests)
	}
}

func TestRunnerPacedSheds(t *testing.T) {
	spec := &Spec{
		Name:        "slow",
		Seed:        1,
		Keys:        dataset.Distribution{Family: dataset.FamilyUniform},
		Sizes:       SizeDist{Dist: "fixed", Min: 1},
		Connections: 1,
		InFlight:    1,
		// One slot at 10ms service time cannot do 1000 qps: the slot
		// must shed, not queue, the misses.
		Phases: []Phase{{Name: "over", DurationMS: 300, TargetQPS: 1000}},
	}
	r := &Runner{
		Spec:       spec,
		Bits:       16,
		NewSession: func() (Session, error) { return &fakeSession{delay: 10 * time.Millisecond}, nil },
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Phases[0]
	if p.Shed == 0 {
		t.Fatalf("overloaded paced phase shed nothing (%d requests)", p.Requests)
	}
	if p.Requests > 60 {
		t.Fatalf("slot somehow completed %d ops in 300ms at 10ms each", p.Requests)
	}
}

func TestRunnerContextCancel(t *testing.T) {
	spec := &Spec{
		Name:        "cancel",
		Seed:        1,
		Keys:        dataset.Distribution{Family: dataset.FamilyUniform},
		Sizes:       SizeDist{Dist: "fixed", Min: 1},
		Connections: 1,
		InFlight:    1,
		Phases:      []Phase{{Name: "p", DurationMS: 60000}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	r := &Runner{
		Spec:       spec,
		Bits:       16,
		NewSession: func() (Session, error) { return &fakeSession{}, nil },
	}
	start := time.Now()
	if _, err := r.Run(ctx); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not stop the run promptly")
	}
}

func TestReportValidateAndCompare(t *testing.T) {
	mk := func(qps, p99 float64) []byte {
		rep := NewLoadReport("logbrc", 16)
		rep.Runs = []RunReport{{
			Workload:     "zipf",
			Seed:         7,
			SustainedQPS: qps,
			Latency:      LatencySummary{Count: 100, P50Us: 10, P95Us: 50, P99Us: p99, MaxUs: p99 * 2, MeanUs: 20},
			Phases: []PhaseReport{{
				Name: "sustain", Connections: 8, InFlight: 4, DurationMS: 3000,
				Requests: 100, QPS: qps,
				Latency: LatencySummary{Count: 100, P50Us: 10, P95Us: 50, P99Us: p99, MaxUs: p99 * 2, MeanUs: 20},
			}},
		}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := mk(5000, 100)
	if err := ValidateReport(good); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport([]byte(`{"tool":"rsse-bench"}`)); err == nil {
		t.Fatal("wrong tool accepted")
	}
	if err := ValidateReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}

	if err := CompareReports(good, mk(4500, 105), 0.20); err != nil {
		t.Fatalf("within-tolerance report rejected: %v", err)
	}
	if err := CompareReports(good, mk(3000, 100), 0.20); err == nil || !strings.Contains(err.Error(), "qps regressed") {
		t.Fatalf("qps regression not caught: %v", err)
	}
	if err := CompareReports(good, mk(5000, 200), 0.20); err == nil || !strings.Contains(err.Error(), "p99 regressed") {
		t.Fatalf("p99 regression not caught: %v", err)
	}
	other := mk(5000, 100)
	var rep LoadReport
	if err := json.Unmarshal(other, &rep); err != nil {
		t.Fatal(err)
	}
	rep.Runs[0].Workload = "uniform"
	data, _ := json.Marshal(&rep)
	if err := CompareReports(good, data, 0.20); err == nil {
		t.Fatal("disjoint workload sets not caught")
	}
}
