package core

import (
	"context"
	"testing"

	"rsse/internal/race"
	"rsse/internal/sse"
)

// TestQueryPathAllocs pins the steady-state allocation counts of the
// standard query-path workloads (the BenchmarkQueryPath and
// BenchmarkQueryBatchPath setups). The LogBRC bound is roughly 2x its
// measured ~40 at the time it was set (17 today), so normal jitter
// (GC-evicted sync.Pool entries mid-run) passes, but losing the pooled
// PRF hashers, GGM expanders or token arenas trips the guard instead of
// silently regressing the perf trajectory. The other rows sit about 10%
// above their counts, and at least two above, since their indexes pad
// cells from F (PRF suite 3), so a search hit schedules no AES key:
// Constant 15 (655 leaves per query, one in seven non-empty: 109 with an
// AES key schedule per hit leaf, 216 before the lockstep pass searched
// them together), Logarithmic-URC 14 (23 with AES cells, 29 before its
// cover was read off the bits of the range, 33 before the lockstep
// pass), -SRC 22 (23) and -SRC-i 27 (29). The 64-range batch, on a
// suite-0 Logarithmic-BRC index, is 144 on a cold stag cache (guard
// 158) and 29–33 warm (guard 36) since it plans its covers into one
// array deduplicated by sorting and demultiplexes into one id array and
// one group-size array (425 with a dedup map and slices per range, 664
// before the lockstep pass).
// parent records what each cost on the single-range rounds the one
// query protocol replaced, when SRC-i also scheduled an AES key per
// round-1 pair.
func TestQueryPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs the full 10k-tuple workload")
	}
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	for _, tc := range []struct {
		name   string
		kind   Kind
		maxOps float64
		parent float64 // 0: not recorded
	}{
		{"LogBRC", LogarithmicBRC, 90, 0},
		{"Constant", ConstantBRC, 17, 0},
		{"LogURC", LogarithmicURC, 16, 42},
		{"LogSRC", LogarithmicSRC, 24, 29},
		{"LogSRCi", LogarithmicSRCi, 30, 472},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, idx, ranges := benchSetup(t, tc.kind)
			i := 0
			got := testing.AllocsPerRun(10, func() {
				client.ResetHistory()
				if _, err := client.QueryContext(context.Background(), idx, ranges[i%len(ranges)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%.0f objects/op (guard %.0f, single-range rounds %.0f)", got, tc.maxOps, tc.parent)
			if got > tc.maxOps {
				t.Errorf("query allocates %.0f objects/op, guard is %.0f — a pooling regression?", got, tc.maxOps)
			}
		})
	}
	t.Run("Batch", func(t *testing.T) {
		client, idx, _ := benchSetup(t, LogarithmicBRC)
		m := uint64(1) << benchBits
		ranges := make([]Range, 64)
		for i := range ranges {
			lo := m/8 + uint64(i)*(m/1024)
			ranges[i] = Range{Lo: lo, Hi: lo + m/10 - 1}
		}
		batch := func() {
			if _, err := client.QueryBatchContext(context.Background(), idx, ranges); err != nil {
				t.Fatal(err)
			}
		}
		// Cold: the process-wide derived-state cache starts empty, as in
		// a fresh process, and admits each stag at its second sight.
		sse.ResetKernelCache()
		cold := testing.AllocsPerRun(5, batch)
		// Warm: every stag is cached.
		for range 3 {
			batch()
		}
		warm := testing.AllocsPerRun(5, batch)
		t.Logf("%.0f objects/op cold (guard 158), %.0f warm (guard 36)", cold, warm)
		if cold > 158 {
			t.Errorf("64-range batch allocates %.0f objects/op on a cold stag cache, guard is 158 — a per-range allocation?", cold)
		}
		if warm > 36 {
			t.Errorf("64-range batch allocates %.0f objects/op on a warm stag cache, guard is 36 — a per-range allocation?", warm)
		}
	})
}
