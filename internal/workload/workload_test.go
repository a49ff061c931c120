package workload

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/dataset"
)

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

func (f *fakeSession) Do(ctx context.Context, op *Op) (LeakageCounters, error) {
	if err := ctx.Err(); err != nil {
		return LeakageCounters{}, err
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.ops.Add(1)
	return LeakageCounters{Tokens: uint64(len(op.Ranges)), ResponseItems: 3}, nil
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
	// The run-level figures are the capacity phase's, not a roll-up that
	// the paced hold dilutes.
	if rep.SustainedQPS != sustain.QPS || rep.Latency != sustain.Latency {
		t.Fatalf("run-level figures (%.1f qps, %+v) are not the sustain phase's (%.1f qps, %+v)",
			rep.SustainedQPS, rep.Latency, sustain.QPS, sustain.Latency)
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

// phasedSession answers at whatever service time the test last set, so
// a run can be made fast in one phase and slow in the next.
type phasedSession struct{ delay atomic.Int64 }

func (p *phasedSession) Do(ctx context.Context, op *Op) (LeakageCounters, error) {
	time.Sleep(time.Duration(p.delay.Load()))
	return LeakageCounters{}, ctx.Err()
}

func (p *phasedSession) Close() error { return nil }

// TestRunnerSustainedIsTheSustainPhase: a server that answers faster
// under the ramp's light fan-out than under the full one must not have
// the ramp's rate reported as its sustained throughput. The run-level
// figures are the capacity phase's — the unpaced phase at the spec's
// own connections × in_flight — never the best phase of the run.
func TestRunnerSustainedIsTheSustainPhase(t *testing.T) {
	spec := &Spec{
		Name:        "fast-ramp",
		Seed:        1,
		Keys:        dataset.Distribution{Family: dataset.FamilyUniform},
		Sizes:       SizeDist{Dist: "fixed", Min: 4},
		Connections: 2,
		InFlight:    2,
		Phases: []Phase{
			{Name: "warmup", Warmup: true, DurationMS: 50},
			{Name: "ramp", DurationMS: 200, Connections: 1, InFlight: 1},
			{Name: "sustain", DurationMS: 300},
			{Name: "paced", DurationMS: 200, TargetQPS: 100},
		},
	}
	sess := &phasedSession{}
	r := &Runner{
		Spec:       spec,
		Bits:       16,
		NewSession: func() (Session, error) { return sess, nil },
		OnPhase: func(p PhaseReport) {
			if p.Name == "ramp" {
				sess.delay.Store(int64(20 * time.Millisecond)) // 4 slots / 20ms = 200 qps
			}
		},
	}
	sess.delay.Store(int64(100 * time.Microsecond)) // one slot: ≥ ~900 qps even at 1ms timer granularity
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ramp, sustain := rep.Phases[1], rep.Phases[2]
	if ramp.QPS <= 2*sustain.QPS {
		t.Fatalf("fixture broken: ramp %.1f qps is not well above sustain %.1f qps", ramp.QPS, sustain.QPS)
	}
	if rep.SustainedQPS != sustain.QPS {
		t.Fatalf("sustained_qps %.1f, want the sustain phase's %.1f (ramp ran at %.1f)",
			rep.SustainedQPS, sustain.QPS, ramp.QPS)
	}
	if rep.Latency != sustain.Latency {
		t.Fatalf("run latency %+v, want the sustain phase's %+v", rep.Latency, sustain.Latency)
	}
}

// TestRunnerPacedOnlyAggregates: a spec with no capacity phase reports
// its non-warmup phases as one figure — requests over elapsed time, all
// latencies merged — which sits between the holds, not on the faster.
func TestRunnerPacedOnlyAggregates(t *testing.T) {
	spec := &Spec{
		Name:        "holds",
		Seed:        1,
		Keys:        dataset.Distribution{Family: dataset.FamilyUniform},
		Sizes:       SizeDist{Dist: "fixed", Min: 4},
		Connections: 2,
		InFlight:    2,
		Phases: []Phase{
			{Name: "warmup", Warmup: true, DurationMS: 50},
			{Name: "hold-200", DurationMS: 250, TargetQPS: 200},
			{Name: "hold-800", DurationMS: 250, TargetQPS: 800},
		},
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
	lo, hi := rep.Phases[1], rep.Phases[2]
	want := float64(lo.Requests+hi.Requests) / ((lo.DurationMS + hi.DurationMS) / 1000)
	if math.Abs(rep.SustainedQPS-want) > want*1e-6 {
		t.Fatalf("sustained_qps %.2f, want requests/elapsed over both holds = %.2f", rep.SustainedQPS, want)
	}
	if rep.SustainedQPS <= lo.QPS || rep.SustainedQPS >= hi.QPS {
		t.Fatalf("aggregate %.1f not between the holds' %.1f and %.1f", rep.SustainedQPS, lo.QPS, hi.QPS)
	}
	if rep.Latency.Count != lo.Latency.Count+hi.Latency.Count {
		t.Fatalf("run latency covers %d samples, want %d+%d", rep.Latency.Count, lo.Latency.Count, hi.Latency.Count)
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
	if err := ValidateReport(mk(0, 100)); err == nil || !strings.Contains(err.Error(), "sustained_qps") {
		t.Fatalf("zero-throughput run not caught: %v", err)
	}
}
