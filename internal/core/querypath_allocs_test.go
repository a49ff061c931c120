package core

import (
	"testing"

	"rsse/internal/race"
)

// TestQueryPathAllocs pins the steady-state allocation counts of the
// standard query-path workloads (the BenchmarkQueryPath and
// BenchmarkQueryBatchPath setups). The bounds are
// roughly 2x the measured numbers — LogBRC ~40, Constant ~230 (655
// leaves per query, one in seven non-empty; the 64 ranges repeat, so
// the leaves are never-seen only on the first pass over them — or
// always, under suite 2, which keeps no per-stag state), batch ~2600
// allocs/op at the time the guards were set — so normal jitter
// (GC-evicted sync.Pool entries mid-run) passes, but losing the pooled
// PRF hashers, GGM expanders or token arenas, or paying per cold leaf
// for cache entries again, trips the guard instead of silently
// regressing the perf trajectory. The Logarithmic-URC, -SRC and -SRC-i
// rows sit about 10% above their counts on the one query protocol (33,
// 23 and 29); parent records what each cost on the single-range rounds
// it replaced, when SRC-i also scheduled an AES key per round-1 pair.
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
		{"Constant", ConstantBRC, 460, 0},
		{"LogURC", LogarithmicURC, 36, 42},
		{"LogSRC", LogarithmicSRC, 26, 29},
		{"LogSRCi", LogarithmicSRCi, 32, 472},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, idx, ranges := benchSetup(t, tc.kind)
			i := 0
			got := testing.AllocsPerRun(10, func() {
				client.ResetHistory()
				if _, err := client.Query(idx, ranges[i%len(ranges)]); err != nil {
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
		got := testing.AllocsPerRun(5, func() {
			if _, err := client.QueryBatch(idx, ranges); err != nil {
				t.Fatal(err)
			}
		})
		if got > 5200 {
			t.Errorf("64-range batch allocates %.0f objects/op, guard is 5200 — a pooling regression?", got)
		}
	})
}
